package sim

import (
	"math/rand"
	"testing"
	"time"

	"ethpart/internal/graph"
	"ethpart/internal/trace"
)

// recountCut rebuilds the cumulative cut counters from the live graph and
// the current assignment. Every live vertex has a shard (placement happens
// on first sight and assignments are sticky through retirement), so the
// counters stay exact under decay and retirement. The simulator maintains
// the counters incrementally (Process, moveCutDelta, and decayStep's sweep
// deltas); this full recount is the oracle that path is verified against.
func (s *Simulator) recountCut() {
	s.cutEdges, s.totalEdges = 0, 0
	s.full.Edges(func(u, v graph.VertexID, _ int64) bool {
		su, _ := s.assign.ShardOf(u)
		sv, _ := s.assign.ShardOf(v)
		s.totalEdges++
		if su != sv {
			s.cutEdges++
		}
		return true
	})
}

// TestIncrementalCutMatchesRecountOracle pins the sweep-delta cut
// maintenance against the retained full-recount oracle: at several points
// of a churning decay run — including right after window rollovers with
// retirement — the incrementally maintained counters must equal what
// recountCut rebuilds from scratch over the live graph and assignment.
func TestIncrementalCutMatchesRecountOracle(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed + 77))
		method := Methods()[int(seed)%len(Methods())]
		s, err := New(Config{
			Method: method, K: 3,
			Window:            2 * time.Hour,
			RepartitionEvery:  20 * time.Hour,
			MinRepartitionGap: 10 * time.Hour,
			TriggerWindows:    2,
			DecayHalfLife:     3 * time.Hour,
			Horizon:           6 * time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		check := func(at string) {
			t.Helper()
			cutE, totE := s.cutEdges, s.totalEdges
			s.recountCut()
			if cutE != s.cutEdges || totE != s.totalEdges {
				t.Fatalf("seed %d (%v) %s: incremental %d/%d != oracle %d/%d",
					seed, method, at, cutE, totE, s.cutEdges, s.totalEdges)
			}
		}
		ts := time.Date(2017, 5, 1, 0, 0, 0, 0, time.UTC).Unix()
		for burst := 0; burst < 10; burst++ {
			lo := uint64(rng.Intn(40))
			for i := 0; i < 15+rng.Intn(40); i++ {
				if err := s.Process(rec(ts, lo+uint64(rng.Intn(20)), lo+uint64(rng.Intn(20)))); err != nil {
					t.Fatal(err)
				}
				ts += int64(rng.Intn(500))
			}
			check("mid-run")
			// Multi-window gaps force sweeps with decays and retirements.
			if rng.Intn(2) == 0 {
				ts += int64(time.Duration(2+rng.Intn(12)) * time.Hour / time.Second)
			}
		}
		s.Finish()
		check("after Finish")
	}
}

// TestSweepObsPerWindow pins the sweep-observation stream: one SweepObs
// per flushed window, joined by window start; quiet windows flagged
// RecountSkipped; sweep work recorded only when a sweep ran.
func TestSweepObsPerWindow(t *testing.T) {
	s, err := New(Config{
		Method: MethodHash, K: 2,
		Window:        4 * time.Hour,
		DecayHalfLife: 4 * time.Hour,
		Horizon:       8 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	hour := int64(3600)
	// Window 0: traffic with weight above the floor (repeat edge).
	for i := int64(0); i < 3; i++ {
		if err := s.Process(rec(base+i*600, 1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	// Windows 1..4 roll over with one keep-alive pair far away.
	for w := int64(1); w <= 4; w++ {
		if err := s.Process(rec(base+4*w*hour, 8, 9)); err != nil {
			t.Fatal(err)
		}
	}
	res := s.Finish()
	obs := s.Sweeps()
	// One observation per window, joined by index.
	if len(obs) != len(res.Windows) {
		t.Fatalf("got %d sweep observations for %d windows", len(obs), len(res.Windows))
	}
	// The first rollover decays the weight-3 edge: not quiet.
	if obs[0].RecountSkipped {
		t.Error("window 0's sweep decayed live weights but was flagged quiet")
	}
	if obs[0].SweepNanos <= 0 || obs[0].Touched == 0 {
		t.Errorf("window 0's sweep recorded no work: %+v", obs[0])
	}
	// The final flush has no sweep after it: pre-filled, quiet.
	last := obs[len(obs)-1]
	if !last.RecountSkipped || last.SweepNanos != 0 {
		t.Errorf("final window's observation should be the pre-filled no-sweep entry: %+v", last)
	}
	if last.LiveVertices != res.Vertices {
		t.Errorf("final LiveVertices = %d, result %d", last.LiveVertices, res.Vertices)
	}
	// At least one middle window must be a genuinely quiet sweep (floor
	// weights, nothing expiring) — the case whose cut maintenance is free.
	quiet := false
	for _, o := range obs[1 : len(obs)-1] {
		if o.RecountSkipped && o.LiveVertices > 0 {
			quiet = true
		}
	}
	if !quiet {
		t.Error("no quiet sweep observed; the skip path is untested by this trace")
	}
}

// decayedWindowTrace is a drifting two-community trace shaped so the raw
// period window and the decayed neighbourhood disagree: communities are
// bridged heavily in earlier periods, while the trigger period's own
// traffic is sparse and mostly intra-community.
func decayedWindowTrace() []trace.Record {
	base := time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC).Unix()
	state := uint64(4242)
	next := func(n uint64) uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return (state >> 33) % n
	}
	var recs []trace.Record
	ts := base
	for day := 0; day < 12; day++ {
		for i := 0; i < 160; i++ {
			var from, to uint64
			switch {
			case day < 8 && i%3 == 0:
				// Early heavy cross-community bridges.
				from, to = next(12), 20+next(12)
			case i%2 == 0:
				from, to = next(12), next(12)
			default:
				from, to = 20+next(12), 20+next(12)
			}
			recs = append(recs, trace.Record{Time: ts, From: from, To: to})
			ts += 540 // 160 records/day
		}
	}
	return recs
}

// TestDecayedWindowAblation is the satellite's move-count ablation: giving
// KL and R-METIS the decayed repartition source (window ∪ decayed
// neighbourhood) must actually change their repartition decisions on a
// trace where recency-weighted adjacency disagrees with the raw period
// window — and must change nothing at all outside decay mode, where the
// flag is documented as inert.
func TestDecayedWindowAblation(t *testing.T) {
	recs := decayedWindowTrace()
	run := func(m Method, decayed bool, half time.Duration) *Result {
		cfg := Config{
			Method: m, K: 2,
			Window:           4 * time.Hour,
			RepartitionEvery: 2 * 24 * time.Hour,
			DecayedWindow:    decayed,
		}
		if half > 0 {
			cfg.DecayHalfLife = half
			cfg.Horizon = 8 * half
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return replayAll(t, s, recs)
	}
	for _, m := range []Method{MethodKL, MethodRMetis} {
		raw := run(m, false, 12*time.Hour)
		dec := run(m, true, 12*time.Hour)
		if raw.Repartitions == 0 {
			t.Fatalf("%v: trace fired no repartitions; ablation is vacuous", m)
		}
		if raw.TotalMoves == dec.TotalMoves {
			t.Errorf("%v: decayed window changed nothing (moves %d = %d); source dispatch is dead",
				m, raw.TotalMoves, dec.TotalMoves)
		}
		t.Logf("%v: moves raw=%d decayed=%d, cut raw=%.4f decayed=%.4f",
			m, raw.TotalMoves, dec.TotalMoves, raw.OverallDynamicCut, dec.OverallDynamicCut)

		// Outside decay mode the flag must be inert.
		plain := run(m, false, 0)
		flagged := run(m, true, 0)
		if plain.TotalMoves != flagged.TotalMoves || plain.Repartitions != flagged.Repartitions ||
			plain.OverallDynamicCut != flagged.OverallDynamicCut {
			t.Errorf("%v: DecayedWindow changed a non-decay run", m)
		}
	}
}
