package opsim

import (
	"reflect"
	"testing"
	"time"

	"ethpart/internal/evm"
	"ethpart/internal/shardchain"
	"ethpart/internal/sim"
	"ethpart/internal/trace"
	"ethpart/internal/types"
)

// flashTrace is a self-contained flash-crowd history: quiet base traffic, a
// surge phase multiplying the record rate tenfold over a fresh cohort, then
// a long cooldown — the shape that makes the autoscaler split and later
// merge. Built inline (opsim cannot import the experiments package) with a
// deterministic LCG so the replay is reproducible.
func flashTrace() *sim.GeneratedTrace {
	reg := trace.NewRegistry()
	id := func(seq uint64) uint64 { return reg.ID(types.AddressFromSeq(seq + 1)) }
	state := uint64(0x5eed5eed5eed5eed)
	next := func(n uint64) uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return (state >> 33) % n
	}
	t := time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC).Unix()
	var recs []trace.Record
	block := uint32(1)
	phases := []struct {
		windows, perWindow int
		surge              bool
	}{
		{6, 60, false},
		{6, 600, true},
		{10, 60, false},
	}
	for _, ph := range phases {
		for w := 0; w < ph.windows; w++ {
			step := int64(4*3600) / int64(ph.perWindow)
			for i := 0; i < ph.perWindow; i++ {
				pick := func() uint64 {
					if ph.surge && next(10) < 8 {
						return id(100 + next(400))
					}
					return id(next(100))
				}
				from := pick()
				to := pick()
				if to == from {
					to = id(next(100) + 500)
				}
				recs = append(recs, trace.Record{
					Block: block, Time: t, Kind: evm.KindTransaction,
					From: from, To: to, Value: 1 + next(100),
				})
				t += step
				if i%10 == 9 {
					block++
				}
			}
		}
	}
	return &sim.GeneratedTrace{Registry: reg, Records: recs}
}

func autoscaleCfg(model shardchain.Model) Config {
	return Config{
		Sim: sim.Config{
			Method: sim.MethodTRMetis, K: 2,
			Window:            4 * time.Hour,
			RepartitionEvery:  48 * time.Hour,
			MinRepartitionGap: 8 * time.Hour,
			TriggerWindows:    2,
			DecayHalfLife:     12 * time.Hour,
			Horizon:           36 * time.Hour,
			Autoscale: sim.AutoscaleConfig{
				Enabled: true, KMin: 2, KMax: 8, TargetWindowLoad: 100,
			},
		},
		Model: model,
	}
}

// TestAutoscaleBridgesResizeWaves: the runner must carry every controller
// resize onto the live chain — lanes grow and shrink with the events, the
// per-window Shards series tracks them, the directory's final view agrees
// with the final count, and a merge evacuates real state (visible as wave
// migrations even under the receipts model).
func TestAutoscaleBridgesResizeWaves(t *testing.T) {
	gt := flashTrace()
	cfg := autoscaleCfg(shardchain.ModelReceipts)
	cfg.Capture = true
	res, err := Run(gt, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var splits, merges int
	for _, ev := range res.Sim.Resizes {
		if ev.ToK > ev.FromK {
			splits++
		} else {
			merges++
		}
	}
	if splits == 0 || merges == 0 {
		t.Fatalf("flash crowd produced %d splits, %d merges (want both > 0): %+v",
			splits, merges, res.Sim.Resizes)
	}
	finalK := res.Sim.Resizes[len(res.Sim.Resizes)-1].ToK

	// The per-window shard series is the shards-provisioned-over-time
	// curve: it starts at K, ends at the last event's target, and only
	// changes by recorded events.
	if res.Windows[0].Shards != 2 {
		t.Errorf("first window served with %d shards, want the initial 2", res.Windows[0].Shards)
	}
	if last := res.Windows[len(res.Windows)-1].Shards; last != finalK {
		t.Errorf("last window served with %d shards, controller ended at %d", last, finalK)
	}
	changes := 0
	peak := 0
	for i := 1; i < len(res.Windows); i++ {
		if res.Windows[i].Shards != res.Windows[i-1].Shards {
			changes++
		}
		if res.Windows[i].Shards > peak {
			peak = res.Windows[i].Shards
		}
	}
	if changes > len(res.Sim.Resizes) {
		t.Errorf("window shard series changed %d times for %d resize events",
			changes, len(res.Sim.Resizes))
	}
	if peak <= 2 {
		t.Errorf("window series never rose above the initial count: peak %d", peak)
	}

	// Chain, directory and capture all agree on the final universe.
	if res.K != 2 {
		t.Errorf("Result.K = %d, want the configured initial 2", res.K)
	}
	if len(res.StateRoots) != finalK {
		t.Errorf("captured %d state roots, final k is %d", len(res.StateRoots), finalK)
	}
	if res.DirectoryStats == nil {
		t.Fatal("directory resolver produced no stats")
	}
	if res.DirectoryStats.Shards != finalK {
		t.Errorf("directory ended declaring %d shards, chain ended at %d",
			res.DirectoryStats.Shards, finalK)
	}

	// The merge drained a decommissioned lane: state moved even though the
	// receipts model never migrates for traffic.
	if res.WaveMigrations == 0 {
		t.Error("merge resize evacuated no accounts")
	}
	if res.Totals.Migrations != res.WaveMigrations {
		t.Errorf("receipts-model migrations (%d) beyond the wave/drain share (%d)",
			res.Totals.Migrations, res.WaveMigrations)
	}
	if res.Totals.Failed != 0 {
		t.Errorf("%d failed txs across resizes; funded replay must validate cleanly",
			res.Totals.Failed)
	}
}

// TestAutoscaleResolverByteIdentity extends the directory golden contract
// across elastic resizes: resolving homes through the epoch-versioned
// directory (whose snapshots carry the shard count through every flip) must
// be byte-identical to resolving from the raw assignment, with the
// controller actively splitting and merging mid-run.
func TestAutoscaleResolverByteIdentity(t *testing.T) {
	gt := flashTrace()
	for _, model := range []shardchain.Model{shardchain.ModelReceipts, shardchain.ModelMigration} {
		dirCfg := autoscaleCfg(model)
		asgCfg := autoscaleCfg(model)
		asgCfg.resolveFromAssignment = true

		dres, err := Run(gt, dirCfg)
		if err != nil {
			t.Fatalf("%v directory: %v", model, err)
		}
		ares, err := Run(gt, asgCfg)
		if err != nil {
			t.Fatalf("%v assignment: %v", model, err)
		}
		if len(dres.Sim.Resizes) == 0 {
			t.Fatalf("%v: no resizes fired; identity check is vacuous", model)
		}
		if !reflect.DeepEqual(stripMeasurement(dres), stripMeasurement(ares)) {
			t.Errorf("%v: directory-resolved run diverged from assignment-resolved run across resizes", model)
		}
	}
}

// TestAutoscaleParallelMatchesSerial: the parallel per-shard engine must
// survive mid-run lane growth and removal and still reproduce the serial
// engine bit for bit.
func TestAutoscaleParallelMatchesSerial(t *testing.T) {
	gt := flashTrace()
	serialCfg := autoscaleCfg(shardchain.ModelReceipts)
	parallelCfg := serialCfg
	parallelCfg.Parallel = true
	a, err := Run(gt, serialCfg)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	b, err := Run(gt, parallelCfg)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if len(a.Sim.Resizes) == 0 {
		t.Fatal("no resizes fired; engine check is vacuous")
	}
	if a.Totals != b.Totals {
		t.Errorf("totals diverge:\nserial:   %+v\nparallel: %+v", a.Totals, b.Totals)
	}
	if len(a.Windows) != len(b.Windows) {
		t.Fatalf("window counts differ: %d vs %d", len(a.Windows), len(b.Windows))
	}
	for i := range a.Windows {
		if a.Windows[i] != b.Windows[i] {
			t.Errorf("window %d diverges:\nserial:   %+v\nparallel: %+v", i, a.Windows[i], b.Windows[i])
		}
	}
}
