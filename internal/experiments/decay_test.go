package experiments

import (
	"testing"

	"ethpart/internal/opsim"
	"ethpart/internal/sim"
)

// TestDecayOperationalComparison pins the figure's qualitative claims on
// the drifting-era history: (a) the comparison covers the three
// repartitioning methods with and without decay on identical traffic,
// (b) decay bounds the live graph by the active set while full history
// grows with the trace, and (c) for the full-graph repartitioner (METIS)
// the repartition waves move far less state under decay — the dead eras
// drop out of every firing.
func TestDecayOperationalComparison(t *testing.T) {
	rows, err := DecayOperational(DecayParams{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 3 methods x 2 modes", len(rows))
	}
	byKey := func(m sim.Method, decay bool) *opsim.Result {
		label := "full-history"
		if decay {
			label = "decay"
		}
		for _, r := range rows {
			if r.Result.Method == m && r.Label == label {
				if on := r.Config.Sim.DecayHalfLife > 0; on != decay {
					t.Fatalf("%v %s: decay enabled = %v", m, label, on)
				}
				return r.Result
			}
		}
		t.Fatalf("missing row %v %s", m, label)
		return nil
	}
	for _, m := range []sim.Method{sim.MethodMetis, sim.MethodRMetis, sim.MethodTRMetis} {
		full, decay := byKey(m, false), byKey(m, true)
		// Same replay on both sides: both must actually repartition.
		if full.Sim.Repartitions == 0 || decay.Sim.Repartitions == 0 {
			t.Errorf("%v: no repartitions (full=%d decay=%d)", m, full.Sim.Repartitions, decay.Sim.Repartitions)
		}
		// The memory bound: full history accumulates every era, decay
		// keeps roughly the horizon's worth of active set.
		if full.Sim.Vertices <= 3*decay.Sim.Vertices {
			t.Errorf("%v: live graph %d (full) vs %d (decay); decay should bound it",
				m, full.Sim.Vertices, decay.Sim.Vertices)
		}
		if full.WaveMigrations == 0 {
			t.Errorf("%v: waves moved no state; the comparison is vacuous", m)
		}
	}
	// The headline: METIS (whole-graph repartitioner) must move much less
	// state per run under decay — dead eras stop being re-migrated.
	full, decay := byKey(sim.MethodMetis, false), byKey(sim.MethodMetis, true)
	if decay.WaveMigrations >= full.WaveMigrations/2 {
		t.Errorf("METIS wave migrations %d (decay) vs %d (full); decay should at least halve them",
			decay.WaveMigrations, full.WaveMigrations)
	}
	if decay.WaveMigratedSlots >= full.WaveMigratedSlots {
		t.Errorf("METIS wave slots %d (decay) vs %d (full)", decay.WaveMigratedSlots, full.WaveMigratedSlots)
	}
}
