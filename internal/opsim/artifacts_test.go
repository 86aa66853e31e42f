package opsim

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"ethpart/internal/fault"
	"ethpart/internal/shardchain"
	"ethpart/internal/sim"
	"ethpart/internal/types"
	"ethpart/internal/workload"
)

// updateArtifacts rewrites testdata/artifacts.json from the implementation
// under test. The committed file pins the chain side of fixed runs — every
// shard's final state root, the home of every account, a running hash over
// every transaction receipt in replay order, the totals and the block
// count — so a change to chain.State, chain.ApplyTransactionInto or
// shardchain's engines that is meant to be byte-identical can be checked to
// be. Regenerate it only in a PR whose stated purpose is to change what the
// chain computes.
//
// Provenance: the file is the parent tree's output, commit 8da514a (before
// PR 22 reworked account resolution, receipt allocation and migration). This
// test file drops into a clean checkout of that commit as it is, and
//
//	go test -run TestChainArtifacts ./internal/opsim -update-artifacts
//
// wrote the committed file there; `go test -run TestChainArtifacts
// ./internal/opsim` passes on both trees against that one file.
var updateArtifacts = flag.Bool("update-artifacts", false, "rewrite testdata/artifacts.json")

const artifactsFile = "testdata/artifacts.json"

// chainArtifacts is what one cell pins.
type chainArtifacts struct {
	Name              string
	StateRoots        []string
	HomesHash         string
	ReceiptsHash      string
	Totals            shardchain.Stats
	WaveMigrations    int64
	WaveMigratedSlots int64
	Blocks            int64
}

type artifactCell struct {
	name string
	gt   *sim.GeneratedTrace
	cfg  func() (Config, error)
}

// artifactCells lists the pinned runs: the bench's ops-bridge matrix at
// test size (four methods under both models, k=4, era history seed 1 at
// scale 0.0005), the flash-crowd autoscale run under both models (a split
// and a merge, so lanes appear and a decommissioned lane evacuates its
// state), and one fault-armed receipts cell over smallTrace (crash recovery
// replaying a shard's slice of a block, dropped/duplicated/delayed/reordered
// receipts, stalled waves).
func artifactCells(t *testing.T) []artifactCell {
	t.Helper()
	era, err := sim.Generate(workload.Config{Seed: 1, Scale: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	var cells []artifactCell
	for _, model := range []shardchain.Model{shardchain.ModelReceipts, shardchain.ModelMigration} {
		for _, m := range []sim.Method{sim.MethodHash, sim.MethodKL, sim.MethodRMetis, sim.MethodTRMetis} {
			cells = append(cells, artifactCell{
				name: m.String() + "/" + model.String(),
				gt:   era,
				cfg: func() (Config, error) {
					return Config{Sim: sim.Config{Method: m, K: 4}, Model: model}, nil
				},
			})
		}
	}
	flash := flashTrace()
	for _, model := range []shardchain.Model{shardchain.ModelReceipts, shardchain.ModelMigration} {
		cells = append(cells, artifactCell{
			name: "autoscale/" + model.String(),
			gt:   flash,
			cfg:  func() (Config, error) { return autoscaleCfg(model), nil },
		})
	}
	// The fault cell stays on the week-long hourly-block trace it was
	// pinned on; TestFaultPlaneAtEraScale runs the era history under the
	// same schedule, against its fault-free oracle.
	small := smallTrace(t)
	cells = append(cells, artifactCell{
		name: "fault-mixed/receipts",
		gt:   small,
		cfg:  func() (Config, error) { return mixedFaultCfg(small, sim.MethodTRMetis, 25) },
	})
	return cells
}

// mixedFaultCfg is the fault-mixed cell's receipts-model run over small
// under method: periodic crashes, dropped/duplicated/delayed/reordered
// receipts, every fifth commit failing transiently and each wave flip
// stalled for stall flushes.
func mixedFaultCfg(small *sim.GeneratedTrace, method sim.Method, stall int) (Config, error) {
	blocks := uint64(small.Records[len(small.Records)-1].Block) + 48
	inj, err := fault.New(fault.Schedule{
		Seed: 1, Shards: 4,
		Crashes:  fault.PeriodicCrashes(7, blocks, 4),
		DropProb: 0.15, DelayProb: 0.1, DupProb: 0.2,
		ShuffleDeliveries: true,
		WaveStallFlushes:  stall, CommitFailEvery: 5,
	})
	if err != nil {
		return Config{}, err
	}
	cfg := cfgFor(method, shardchain.ModelReceipts, 4)
	cfg.Fault = inj
	return cfg, nil
}

// TestFaultPlaneAtEraScale runs the era history (seed 1, scale 0.0005:
// 74,721 records over 14,330 blocks) under the fault-mixed cell's schedule
// — a crash every seventh block, lossy, duplicating, delaying and shuffled
// delivery, failing and stalled commits — and checks that the chain
// converges to the fault-free oracle's: state roots, homes, receipts and
// totals equal, and no torn commit.
func TestFaultPlaneAtEraScale(t *testing.T) {
	era, err := sim.Generate(workload.Config{Seed: 1, Scale: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	oracleCfg := cfgFor(sim.MethodTRMetis, shardchain.ModelReceipts, 4)
	oracleCfg.Capture = true
	oracle, err := Run(era, oracleCfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := mixedFaultCfg(era, sim.MethodTRMetis, 25)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Capture = true
	res, err := Run(era, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Fault
	t.Logf("%d records, %d blocks: %d crashes, %d dropped, %d duplicates suppressed, %d stalls",
		res.Replayed, res.Blocks, f.Crashes, f.Dropped, f.DupsSuppressed, f.WaveStalls)
	if f.Crashes < 2000 {
		t.Errorf("%d crashes, want at least 2,000", f.Crashes)
	}
	if f.TornCommits != 0 {
		t.Errorf("%d torn commits", f.TornCommits)
	}
	if !reflect.DeepEqual(res.StateRoots, oracle.StateRoots) {
		t.Errorf("state roots diverge from the oracle's\n got %v\nwant %v", hexes(res.StateRoots), hexes(oracle.StateRoots))
	}
	if res.HomesHash != oracle.HomesHash {
		t.Errorf("homes hash %v, oracle %v", res.HomesHash, oracle.HomesHash)
	}
	if res.ReceiptsHash != oracle.ReceiptsHash {
		t.Errorf("receipts hash %v, oracle %v", res.ReceiptsHash, oracle.ReceiptsHash)
	}
	if res.Totals != oracle.Totals {
		t.Errorf("totals diverge from the oracle's\n got %+v\nwant %+v", res.Totals, oracle.Totals)
	}
}

func hexes(hs []types.Hash) []string {
	out := make([]string, len(hs))
	for i, h := range hs {
		out[i] = h.Hex()
	}
	return out
}

// TestChainArtifacts replays every pinned cell with Capture on and compares
// the chain-side artifacts with the committed file.
func TestChainArtifacts(t *testing.T) {
	var got []chainArtifacts
	for _, c := range artifactCells(t) {
		cfg, err := c.cfg()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		cfg.Capture = true
		res, err := Run(c.gt, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Replayed != int64(len(c.gt.Records)) {
			t.Errorf("%s: replayed %d of %d records", c.name, res.Replayed, len(c.gt.Records))
		}
		if f := res.Fault; f != nil && (f.Crashes == 0 || f.Dropped == 0 || f.DupsSuppressed == 0) {
			t.Errorf("%s: the fault plane never fired: %+v", c.name, *f)
		}
		got = append(got, chainArtifacts{
			Name:              c.name,
			StateRoots:        hexes(res.StateRoots),
			HomesHash:         res.HomesHash.Hex(),
			ReceiptsHash:      res.ReceiptsHash.Hex(),
			Totals:            res.Totals,
			WaveMigrations:    res.WaveMigrations,
			WaveMigratedSlots: res.WaveMigratedSlots,
			Blocks:            res.Blocks,
		})
	}
	if *updateArtifacts {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(artifactsFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(artifactsFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []chainArtifacts
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cells, %s pins %d", len(got), artifactsFile, len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: chain artifacts moved\n got %+v\nwant %+v", got[i].Name, got[i], want[i])
		}
	}
}

// TestFaultPinObservations pins what the fault plane records about the
// epochs chain blocks pin — StaleBlocks, MaxEpochLag, RePins — the one read
// the pipelined bridge moved (from Step entry on the chain to block seal on
// the control stage). The fault-mixed cell is TestChainArtifacts'; its
// TR-METIS policy fires no wave on this trace, so it pins zeros. The two
// R-METIS cells fire three: a 25-flush stall lands mid-run (stale blocks,
// then re-pins), a 400-flush stall is still pending when the records run
// out, so the end-of-run settle blocks count as stale too.
//
// Provenance: the numbers are the parent tree's, commit 9ccef02 (before the
// bridge was pipelined). This test file drops into a clean checkout of that
// commit as it is, and `go test -run TestFaultPinObservations
// ./internal/opsim` passes on both trees.
func TestFaultPinObservations(t *testing.T) {
	type pins struct{ StaleBlocks, MaxEpochLag, RePins uint64 }
	small := smallTrace(t)
	for _, c := range []struct {
		method sim.Method
		stall  int
		want   pins
	}{
		{sim.MethodTRMetis, 25, pins{0, 0, 0}}, // the fault-mixed cell
		{sim.MethodRMetis, 25, pins{20, 1, 3}},
		{sim.MethodRMetis, 400, pins{132, 3, 0}},
	} {
		cfg, err := mixedFaultCfg(small, c.method, c.stall)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(small, cfg)
		if err != nil {
			t.Fatalf("%v stall %d: %v", c.method, c.stall, err)
		}
		f := res.Fault
		if got := (pins{f.StaleBlocks, f.MaxEpochLag, f.RePins}); got != c.want {
			t.Errorf("%v stall %d: pin observations %+v, the parent tree recorded %+v",
				c.method, c.stall, got, c.want)
		}
	}
}
