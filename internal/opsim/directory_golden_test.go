package opsim

import (
	"reflect"
	"testing"
	"time"

	"ethpart/internal/directory"
	"ethpart/internal/graph"
	"ethpart/internal/shardchain"
	"ethpart/internal/sim"
)

// stripMeasurement zeroes the fields two otherwise identical runs are
// allowed to differ on: wall-clock timing and the resolver's own
// reporting. Everything else — receipts-derived stats, windows, the
// simulator result (which covers placements, moves and homes) — must
// match byte for byte.
func stripMeasurement(r *Result) *Result {
	c := *r
	c.StepNanos = 0
	c.DirectoryStats = nil
	c.DirectoryView = nil
	if c.Sweeps != nil {
		// SweepNanos is wall clock; the rest of each observation (live
		// sizes, touched counts, skip flags) is simulation state and must
		// still match.
		sweeps := make([]sim.SweepObs, len(c.Sweeps))
		copy(sweeps, c.Sweeps)
		for i := range sweeps {
			sweeps[i].SweepNanos = 0
		}
		c.Sweeps = sweeps
	}
	return &c
}

// TestDirectoryResolvedRunsIdentical is the tentpole's golden contract:
// resolving every home through the epoch-versioned directory's snapshots
// must be byte-identical to resolving through the simulator's raw
// assignment — across methods, both multi-shard models, and with decay
// (placements, waves AND retirement spill on the publisher path).
func TestDirectoryResolvedRunsIdentical(t *testing.T) {
	gt := smallTrace(t)
	type variant struct {
		name  string
		cfg   Config
		decay bool
	}
	var variants []variant
	for _, model := range []shardchain.Model{shardchain.ModelReceipts, shardchain.ModelMigration} {
		for _, m := range []sim.Method{sim.MethodHash, sim.MethodTRMetis} {
			variants = append(variants, variant{
				name: m.String() + "/" + model.String(),
				cfg:  cfgFor(m, model, 4),
			})
		}
		// Decay exercises the cold tier: retirements spill, reappearing
		// vertices resolve from the cold map, waves rehydrate.
		dc := cfgFor(sim.MethodTRMetis, model, 4)
		dc.Sim.DecayHalfLife = 12 * time.Hour
		dc.Sim.Horizon = 24 * time.Hour
		variants = append(variants, variant{
			name: "TR-METIS-decay/" + model.String(), cfg: dc, decay: true,
		})
	}

	for _, v := range variants {
		dirCfg := v.cfg
		asgCfg := v.cfg
		asgCfg.resolveFromAssignment = true

		dres, err := Run(gt, dirCfg)
		if err != nil {
			t.Fatalf("%s directory: %v", v.name, err)
		}
		ares, err := Run(gt, asgCfg)
		if err != nil {
			t.Fatalf("%s assignment: %v", v.name, err)
		}
		if dres.DirectoryStats == nil {
			t.Fatalf("%s: directory run has no directory stats", v.name)
		}
		if ares.DirectoryStats != nil {
			t.Fatalf("%s: assignment run built a directory", v.name)
		}
		if !reflect.DeepEqual(stripMeasurement(dres), stripMeasurement(ares)) {
			t.Errorf("%s: directory-resolved run diverged from assignment-resolved run", v.name)
		}
		// The directory's final view must cover exactly the assignment:
		// every assigned vertex resolves to the same shard.
		st := dres.DirectoryStats
		if st.Entries == 0 || st.Epoch == 0 {
			t.Errorf("%s: directory never exercised (entries=%d epoch=%d)",
				v.name, st.Entries, st.Epoch)
		}
		if v.decay {
			if st.Cold == 0 {
				t.Errorf("%s: decay run spilled nothing to the cold tier", v.name)
			}
		} else if st.Cold != 0 {
			t.Errorf("%s: cold entries without decay: %d", v.name, st.Cold)
		}
	}
}

// TestDirectoryFinalViewMatchesAssignment cross-checks a publisher-fed
// directory entry-by-entry against the simulator's assignment after a
// decayed repartitioning replay: the publisher must not lose, duplicate or
// misroute a single vertex across place/wave/retire traffic, in either
// direction.
func TestDirectoryFinalViewMatchesAssignment(t *testing.T) {
	gt := smallTrace(t)
	dir := directory.New(directory.Config{})
	pub := directory.NewPublisher(dir)
	cfg := sim.Config{
		Method: sim.MethodTRMetis, K: 4,
		Window:            4 * time.Hour,
		MinRepartitionGap: 24 * time.Hour,
		TriggerWindows:    2,
		DecayHalfLife:     12 * time.Hour,
		Horizon:           24 * time.Hour,
		OnPlace:           pub.OnPlace,
		OnMove:            pub.OnMove,
		OnRetire:          pub.OnRetire,
	}
	cfg.OnRepartition = func(_ time.Time, moves int) {
		if err := pub.OnRepartition(moves); err != nil {
			t.Fatal(err)
		}
	}
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range gt.Records {
		if err := s.Process(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Finish()

	snap := dir.Current()
	// Directory → assignment: every directory entry matches.
	n := 0
	snap.Each(func(v graph.VertexID, shard int) bool {
		n++
		got, ok := s.Assignment().ShardOf(v)
		if !ok || got != shard {
			t.Fatalf("vertex %d: directory says %d, assignment says %d (ok=%v)", v, shard, got, ok)
		}
		return true
	})
	// Assignment → directory: same cardinality means same coverage.
	assigned := 0
	for _, c := range s.Assignment().Counts() {
		assigned += c
	}
	if n != assigned {
		t.Fatalf("directory holds %d entries, assignment %d", n, assigned)
	}
	if st := dir.Stats(); st.Cold == 0 {
		t.Errorf("decay replay never spilled to the cold tier: %+v", st)
	}
}
