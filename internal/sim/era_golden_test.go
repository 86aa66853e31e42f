package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"ethpart/internal/golden"
	"ethpart/internal/workload"
)

// The pipeline refactor's contract: the era-based workload.Config path,
// re-expressed as one composition of the arrival/population/scenario
// layers, must produce byte-identical traces to the pre-pipeline
// generator. The hashes in testdata/era_traces.json were captured from the
// closed-loop generator immediately before the refactor; any drift in
// record content, order or count is a regression.

func goldenDate(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

func goldenEras() []workload.Era {
	return []workload.Era{
		{
			Name:  "growth",
			Start: goldenDate(2016, time.January, 1), End: goldenDate(2016, time.January, 11),
			TxPerDayStart: 2_000, TxPerDayEnd: 8_000, Kind: workload.GrowthExponential,
			NewAccountFrac: 0.3, DeploysPerDay: 10,
			Mix: workload.TxMix{Transfer: 0.6, Token: 0.15, Wallet: 0.1, Crowdsale: 0.05, Game: 0.05, Airdrop: 0.05},
		},
		{
			Name:  "attack",
			Start: goldenDate(2016, time.January, 11), End: goldenDate(2016, time.January, 16),
			TxPerDayStart: 30_000, TxPerDayEnd: 30_000, Kind: workload.GrowthLinear,
			NewAccountFrac: 0.1, DummyFrac: 0.8, DeploysPerDay: 2,
			Mix: workload.TxMix{Transfer: 0.15, Token: 0.02, Wallet: 0.01, Crowdsale: 0.01, Game: 0.005, Airdrop: 0.005},
		},
	}
}

// hashTrace digests every field of every record, in order.
func hashTrace(gt *GeneratedTrace) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) { binary.BigEndian.PutUint64(buf[:], v); h.Write(buf[:]) }
	for _, r := range gt.Records {
		put(uint64(r.Block))
		put(uint64(r.Time))
		put(uint64(r.Kind))
		put(r.From)
		put(r.To)
		var fb, tb uint64
		if r.FromContract {
			fb = 1
		}
		if r.ToContract {
			tb = 1
		}
		put(fb)
		put(tb)
		put(r.Value)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// traceDigest is what the trace goldens pin of one generated history.
type traceDigest struct {
	Records  int    `json:"records"`
	Vertices int    `json:"vertices"`
	SHA256   string `json:"sha256"`
}

func digestTrace(gt *GeneratedTrace) traceDigest {
	return traceDigest{Records: len(gt.Records), Vertices: gt.Registry.Len(), SHA256: hashTrace(gt)}
}

func sameDigest(got, want traceDigest) bool { return got == want }

func TestEraPathMatchesPreRefactorGoldens(t *testing.T) {
	g := golden.Object(t, "testdata/era_traces.json", sameDigest)
	for _, tc := range []struct {
		name string
		cfg  workload.Config
	}{
		{"plain", workload.Config{Seed: 7, Scale: 0.05, Eras: goldenEras(), BlockInterval: time.Hour}},
		{"communities", workload.Config{Seed: 11, Scale: 0.03, Eras: goldenEras(), BlockInterval: 2 * time.Hour,
			Communities: 3, CommunityLocality: 0.9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gt, err := Generate(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			g.Check(t, tc.name, digestTrace(gt))
		})
	}
	g.Done(t)
}

// TestScenarioLibraryGoldens pins every library scenario's stream at 24
// hours, default seed (testdata/scenario_traces.json): the generator's
// fixed parameters (hot-set size, exchange hubs, bootstrap accounts,
// preferential-attachment probability, airdrop fan-out, diurnal period)
// reach each record through these.
func TestScenarioLibraryGoldens(t *testing.T) {
	g := golden.Object(t, "testdata/scenario_traces.json", sameDigest)
	names := workload.ScenarioNames()
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			sc, err := workload.ResolveScenario(name, "", 24, 0)
			if err != nil {
				t.Fatal(err)
			}
			gt, err := GenerateScenario(sc)
			if err != nil {
				t.Fatal(err)
			}
			g.Check(t, name, digestTrace(gt))
		})
	}
	g.Done(t)
}
