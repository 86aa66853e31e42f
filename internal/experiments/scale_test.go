package experiments

import (
	"testing"

	"ethpart/internal/opsim"
)

// TestFlashCrowdTraceShape: the pipeline-generated trace is deterministic
// in its seed and carries the three-phase shape the autoscaler comparison
// depends on — a surge phase an order of magnitude denser than the quiet
// phases around it, populated by a crowd of accounts the quiet prefix
// never saw.
func TestFlashCrowdTraceShape(t *testing.T) {
	a := FlashCrowdTrace(ScaleParams{Seed: 7})
	b := FlashCrowdTrace(ScaleParams{Seed: 7})
	if len(a.Records) != len(b.Records) {
		t.Fatalf("same seed, different lengths: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("same seed diverges at record %d", i)
		}
	}
	c := FlashCrowdTrace(ScaleParams{Seed: 8})
	same := len(c.Records) == len(a.Records)
	if same {
		diff := false
		for i := range a.Records {
			if a.Records[i] != c.Records[i] {
				diff = true
				break
			}
		}
		if !diff {
			t.Error("different seeds produced identical traces")
		}
	}

	// Bucket records into the arrival process's three phases by timestamp.
	spec := FlashCrowdSpec(7)
	start := spec.Arrival.Start.Unix()
	surgeFrom := start + int64(flashQuietWindows*flashWindowHours*3600)
	surgeTo := surgeFrom + int64(flashSurgeWindows*flashWindowHours*3600)
	var quiet, surge, cool int
	quietSeen := map[uint64]bool{}
	crowd := map[uint64]bool{}
	for _, r := range a.Records {
		switch {
		case r.Time < surgeFrom:
			quiet++
			quietSeen[r.From], quietSeen[r.To] = true, true
		case r.Time < surgeTo:
			surge++
			if !quietSeen[r.From] {
				crowd[r.From] = true
			}
			if !quietSeen[r.To] {
				crowd[r.To] = true
			}
		default:
			cool++
		}
	}
	if quiet == 0 || surge == 0 || cool == 0 {
		t.Fatalf("phase empty: quiet=%d surge=%d cool=%d", quiet, surge, cool)
	}
	// The surge phase and the quiet prefix cover the same number of
	// windows; the flash spike must make the surge several times denser.
	if surge < 4*quiet {
		t.Errorf("surge has %d records vs %d quiet: spike invisible", surge, quiet)
	}
	// The surge brings a crowd: a substantial cohort of accounts that
	// never appeared before it (open-loop arrivals fund new accounts).
	if len(crowd) < len(quietSeen) {
		t.Errorf("surge introduced only %d new accounts over %d quiet-phase ones",
			len(crowd), len(quietSeen))
	}
}

// TestScaleOperational runs the scalecost comparison end to end and pins
// the figure's headline relationships: the fixed policies never resize and
// bracket the autoscaler's capacity cost, and the autoscaler both splits
// under the surge and merges in the cooldown.
func TestScaleOperational(t *testing.T) {
	rows, err := ScaleOperational(ScaleParams{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want fixed-kmin, fixed-kmax, autoscale", len(rows))
	}
	byMode := map[string]*opsim.Result{}
	for _, r := range rows {
		byMode[r.Label] = r.Result
	}
	kmin, kmax, auto := byMode["fixed-kmin"], byMode["fixed-kmax"], byMode["autoscale"]

	for _, mode := range []string{"fixed-kmin", "fixed-kmax"} {
		r := byMode[mode]
		if n := len(r.Sim.Resizes); n != 0 {
			t.Errorf("%s resized %d times; fixed policies must not", mode, n)
		}
		if r.FinalShards() != r.K {
			t.Errorf("%s ended at k=%d, started at %d", mode, r.FinalShards(), r.K)
		}
	}
	// Fixed cells provision k shards in every window; the exact window
	// count belongs to the arrival process, but the two runs must agree on
	// it (shard-windows scale with k on the same trace).
	if kmin.ShardWindows()%2 != 0 || kmax.ShardWindows() != 4*kmin.ShardWindows() {
		t.Errorf("fixed shard-windows inconsistent: kmin=%d kmax=%d (want 4x)",
			kmin.ShardWindows(), kmax.ShardWindows())
	}

	if len(auto.Sim.Resizes) == 0 {
		t.Fatal("autoscale cell never resized on the flash crowd")
	}
	if auto.ShardWindows() <= kmin.ShardWindows() || auto.ShardWindows() >= kmax.ShardWindows() {
		t.Errorf("autoscale capacity cost %d shard-windows not strictly between the fixed %d and %d",
			auto.ShardWindows(), kmin.ShardWindows(), kmax.ShardWindows())
	}
	// Scaling out must relieve the saturation the small fleet suffers.
	if auto.PeakWindowLoad() >= kmin.PeakWindowLoad() {
		t.Errorf("autoscale peak load %d not below fixed-kmin's %d",
			auto.PeakWindowLoad(), kmin.PeakWindowLoad())
	}
	// The merge leg pays honest decommissioning cost under receipts: the
	// fixed cells never migrate, the autoscaler does.
	if kmin.Totals.Migrations != 0 || kmax.Totals.Migrations != 0 {
		t.Errorf("fixed receipts cells migrated state: %d / %d", kmin.Totals.Migrations, kmax.Totals.Migrations)
	}
	if auto.Totals.Migrations == 0 {
		t.Error("autoscale run recorded no merge-drain migrations")
	}
	for _, r := range rows {
		if r.Result.Totals.Failed != 0 {
			t.Errorf("%s: %d failed txs; funded replay must validate cleanly", r.Label, r.Result.Totals.Failed)
		}
	}
}

// TestScaleOperationalValidation: inverted bounds are rejected up front.
func TestScaleOperationalValidation(t *testing.T) {
	if _, err := ScaleOperational(ScaleParams{KMin: 6, KMax: 3}); err == nil {
		t.Error("KMin > KMax accepted")
	}
}
