package sim

import (
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"ethpart/internal/golden"
	"ethpart/internal/graph"
	"ethpart/internal/metrics"
	"ethpart/internal/trace"
)

// replayAll drives recs through s and returns the finished result.
func replayAll(t *testing.T, s *Simulator, recs []trace.Record) *Result {
	t.Helper()
	for _, r := range recs {
		if err := s.Process(r); err != nil {
			t.Fatal(err)
		}
	}
	return s.Finish()
}

// TestDecayIdentitySweepMatchesDisabled proves the decay plumbing is a true
// no-op when the sweep itself is the identity: with the per-window factor
// forced to exactly 1 and an unreachable horizon, every window, counter and
// graph observable must be byte-identical to a decay-disabled run. This
// pins the epoch stamping, the per-window sweep, and the counter recount
// (which must reproduce the incrementally maintained cut state exactly).
// TR-METIS is exercised separately: decay mode intentionally changes its
// repartition source graph, so identity-of-results does not apply to it.
func TestDecayIdentitySweepMatchesDisabled(t *testing.T) {
	recs := goldenStream()
	for _, m := range []Method{MethodHash, MethodKL, MethodMetis, MethodRMetis} {
		for _, k := range []int{2, 4} {
			base, err := New(goldenConfig(m, k))
			if err != nil {
				t.Fatal(err)
			}
			identCfg := goldenConfig(m, k)
			identCfg.DecayHalfLife = 24 * time.Hour // enables decay mode in New
			identCfg.Horizon = 365 * 24 * time.Hour // far past the ten-day stream
			ident, err := New(identCfg)
			if err != nil {
				t.Fatal(err)
			}
			// Decay mode also switches the graph-aware methods' placement
			// to the Fennel objective; pin the rule back to the cap so this
			// test isolates the sweep plumbing (the Fennel path has its own
			// drifting-era golden in TestDecayPlacementGolden). HASH stays
			// hash.
			if ident.policy.place == placeFennel {
				ident.policy.place = placeCap
			}
			// Force an identity sweep: decay mode stays on (live counts,
			// per-window sweeps, recounts all run), but the factor is
			// exactly 1 and the horizon is never reached.
			ident.decayFactor = 1
			want := replayAll(t, base, recs)
			got := replayAll(t, ident, recs)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v k=%d: identity-decay run differs from disabled run", m, k)
			}
			if got.Vertices != base.full.VertexCount() {
				t.Errorf("%v k=%d: identity decay changed the live graph", m, k)
			}
		}
	}
}

// driftingEras builds a long trace whose active set drifts completely
// every era — the regime the workload package's era schedule models, run
// long enough that full-history mode accumulates far more graph than any
// era keeps active. eras eras of 100 vertices each, windowsPerEra 4-hour
// windows per era, ~120 interactions per window.
func driftingEras(eras, windowsPerEra int) []trace.Record {
	base := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	state := uint64(12345)
	next := func(n uint64) uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return (state >> 33) % n
	}
	var recs []trace.Record
	t := base
	for e := 0; e < eras; e++ {
		lo := uint64(e * 100)
		for w := 0; w < windowsPerEra; w++ {
			for i := 0; i < 120; i++ {
				recs = append(recs, trace.Record{
					Time: t, From: lo + next(100), To: lo + next(100),
				})
				t += 120 // 120 interactions spread over the 4-hour window
			}
		}
	}
	return recs
}

// TestDecayBoundsLiveGraph is the tentpole's headline property: on a long
// drifting-eras trace, full-history mode grows the cumulative graph
// linearly with trace length while decay mode keeps the peak live graph
// O(active set) — a few eras' worth of vertices, however long the trace
// runs.
func TestDecayBoundsLiveGraph(t *testing.T) {
	const eras, windowsPerEra = 24, 10
	recs := driftingEras(eras, windowsPerEra)

	run := func(cfg Config) (peak int, res *Result) {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range recs {
			if err := s.Process(r); err != nil {
				t.Fatal(err)
			}
			if i%500 == 0 {
				if n := s.Graph().VertexCount(); n > peak {
					peak = n
				}
			}
		}
		if n := s.Graph().VertexCount(); n > peak {
			peak = n
		}
		return peak, s.Finish()
	}

	cfg := Config{
		Method: MethodTRMetis, K: 4,
		Window:            4 * time.Hour,
		MinRepartitionGap: 24 * time.Hour,
		TriggerWindows:    2,
		CutThreshold:      0.2,
		BalanceThreshold:  1.5,
	}
	fullPeak, fullRes := run(cfg)

	decayCfg := cfg
	decayCfg.DecayHalfLife = 8 * time.Hour
	decayCfg.Horizon = 24 * time.Hour // 6 windows
	decayPeak, decayRes := run(decayCfg)

	t.Logf("full-history peak=%d, decay peak=%d (%d eras × 100 vertices)",
		fullPeak, decayPeak, eras)
	// Full history accumulates every era's vertices.
	if fullPeak != eras*100 {
		t.Errorf("full-history peak = %d, want %d", fullPeak, eras*100)
	}
	// Decay keeps the live graph within the horizon's worth of active set:
	// the current era plus what the 6-window horizon retains of the
	// previous one.
	if limit := 2*100 + 20; decayPeak > limit {
		t.Errorf("decay peak = %d, want <= %d (O(active set))", decayPeak, limit)
	}
	// Same replay on both sides: window count and total activity agree.
	if len(decayRes.Windows) != len(fullRes.Windows) {
		t.Errorf("window counts differ: %d vs %d", len(decayRes.Windows), len(fullRes.Windows))
	}
	var a, b int64
	for _, w := range fullRes.Windows {
		a += w.Interactions
	}
	for _, w := range decayRes.Windows {
		b += w.Interactions
	}
	if a != b || a != int64(len(recs)) {
		t.Errorf("interaction totals differ: full %d, decay %d, records %d", a, b, len(recs))
	}
	if decayRes.Repartitions == 0 {
		t.Error("decay run never repartitioned; the test should exercise the decayed-graph partitioner path")
	}
}

// TestPropertyDecayCountersExact is the retirement-invariant property test:
// under aggressive decay and retirement, with vertices constantly retiring
// and reappearing through placeIfNew, the incrementally maintained
// cumulative cut counters must equal a from-scratch recount over the live
// graph and assignment at the end of any random run.
func TestPropertyDecayCountersExact(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		method := Methods()[int(seed)%len(Methods())]
		k := []int{2, 3, 4, 8}[int(seed)%4]
		s, err := New(Config{
			Method: method, K: k,
			Window:            2 * time.Hour,
			RepartitionEvery:  24 * time.Hour,
			MinRepartitionGap: 12 * time.Hour,
			TriggerWindows:    2,
			DecayHalfLife:     2 * time.Hour,
			Horizon:           8 * time.Hour, // 4 windows: heavy churn
		})
		if err != nil {
			t.Fatal(err)
		}
		base := time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC).Unix()
		ts := base
		for burst := 0; burst < 12; burst++ {
			lo := uint64(rng.Intn(30))
			for i := 0; i < 10+rng.Intn(60); i++ {
				r := trace.Record{Time: ts, From: lo + uint64(rng.Intn(25)), To: lo + uint64(rng.Intn(25))}
				if err := s.Process(r); err != nil {
					t.Fatal(err)
				}
				ts += int64(rng.Intn(400))
			}
			// Occasional multi-window gap so retirement actually happens.
			if rng.Intn(2) == 0 {
				ts += int64(time.Duration(1+rng.Intn(10)) * time.Hour / time.Second)
			}
		}

		var cutE, totE int64
		s.Graph().Edges(func(u, v graph.VertexID, _ int64) bool {
			su, okU := s.Assignment().ShardOf(u)
			sv, okV := s.Assignment().ShardOf(v)
			if !okU || !okV {
				t.Fatalf("seed %d: live vertex without assignment", seed)
			}
			totE++
			if su != sv {
				cutE++
			}
			return true
		})
		if s.cutEdges != cutE || s.totalEdges != totE {
			t.Errorf("seed %d (%v k=%d): counters %d/%d, recount %d/%d",
				seed, method, k, s.cutEdges, s.totalEdges, cutE, totE)
		}
		// Retired vertices keep sticky assignments: the assignment covers
		// at least the live graph, and every live vertex is assigned.
		assigned := 0
		for _, c := range s.Assignment().Counts() {
			assigned += c
		}
		if assigned < s.Graph().VertexCount() {
			t.Errorf("seed %d: %d assigned < %d live", seed, assigned, s.Graph().VertexCount())
		}
		// The incrementally maintained live counts (placement capacity and
		// static balance both read them) must equal a per-shard recount of
		// the live graph: first sight, reappearance, retirement and moves
		// all have to keep them exact.
		liveLoads := make([]int64, k)
		s.Graph().Vertices(func(id graph.VertexID, _ graph.Kind, _ int64) bool {
			sh, _ := s.Assignment().ShardOf(id)
			liveLoads[sh]++
			return true
		})
		for sh := range liveLoads {
			if int64(s.liveCounts[sh]) != liveLoads[sh] {
				t.Errorf("seed %d: liveCounts[%d] = %d, live recount %d",
					seed, sh, s.liveCounts[sh], liveLoads[sh])
			}
		}
		if got, want := s.staticBalance(), metrics.LoadBalance(liveLoads); got != want {
			t.Errorf("seed %d: staticBalance = %v, live recount %v", seed, got, want)
		}
	}
}

// decayPlacementConfig is the drifting-era decay configuration of the
// placement-objective golden.
func decayPlacementConfig() Config {
	return Config{
		Method: MethodTRMetis, K: 4,
		Window:            4 * time.Hour,
		MinRepartitionGap: 24 * time.Hour,
		TriggerWindows:    2,
		CutThreshold:      0.2,
		BalanceThreshold:  1.5,
		DecayHalfLife:     8 * time.Hour,
		Horizon:           24 * time.Hour,
	}
}

// TestDecayPlacementGolden pins the decay-aware placement objective on a
// drifting-era trace (testdata/decay_placement.json): decay mode feeds the
// decayed neighbour weights into the shared Fennel-style degree-based size
// penalty (PlaceVertexFennel), so first-sight placement and the decayed
// repartitioner optimise the same recency-weighted objective. The values
// were captured at the PR that introduced the objective; a drift here
// means the placement rule, the decay sweep, or the shared penalty
// changed.
func TestDecayPlacementGolden(t *testing.T) {
	recs := driftingEras(12, 8)
	s, err := New(decayPlacementConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := replayAll(t, s, recs)
	if s.policy.place != placeFennel {
		t.Fatal("decay mode did not resolve to the Fennel objective")
	}
	g := golden.Object(t, "testdata/decay_placement.json", sameRow)
	g.Check(t, "TR-METIS/k=4/fennel", summarize(res))
	g.Done(t)

	// The objective must actually differ from the cap rule on this trace —
	// otherwise the golden would pass vacuously with the dispatch broken.
	capSim, err := New(decayPlacementConfig())
	if err != nil {
		t.Fatal(err)
	}
	capSim.policy.place = placeCap
	capRes := replayAll(t, capSim, recs)
	if capRes.TotalMoves == res.TotalMoves &&
		capRes.OverallDynamicCut == res.OverallDynamicCut &&
		capRes.OverallDynamicBalance == res.OverallDynamicBalance {
		t.Error("cap and Fennel placements produced identical runs; the dispatch is dead")
	}
}

// TestHorizonWithoutHalfLifeRejected pins the config validation: a Horizon
// without a DecayHalfLife would be silently ignored (full-history mode
// while the caller believes memory is bounded), so New must refuse it.
func TestHorizonWithoutHalfLifeRejected(t *testing.T) {
	if _, err := New(Config{Method: MethodMetis, K: 2, Horizon: 24 * time.Hour}); err == nil {
		t.Error("Horizon without DecayHalfLife must be rejected")
	}
	if _, err := New(Config{Method: MethodMetis, K: 2,
		DecayHalfLife: 6 * time.Hour, Horizon: 24 * time.Hour}); err != nil {
		t.Errorf("valid decay config rejected: %v", err)
	}
}

// TestHorizonBeyondRingBoundRejected pins the other end of the validation:
// the decaying graph keeps one bucket per window of horizon, so a horizon
// of more than graph.MaxDecayAge-1 windows is refused with the limit named
// — not truncated into a short horizon, and not served by a second sweep.
func TestHorizonBeyondRingBoundRejected(t *testing.T) {
	const limit = graph.MaxDecayAge - 1
	cfg := Config{Method: MethodHash, K: 2, Window: time.Microsecond,
		DecayHalfLife: time.Millisecond, Horizon: limit * time.Microsecond}
	if _, err := New(cfg); err != nil {
		t.Errorf("horizon of exactly %d windows rejected: %v", limit, err)
	}
	for _, horizon := range []time.Duration{
		limit*time.Microsecond + 1,
		(1<<32 + 2) * time.Microsecond, // used to wrap uint32 into maxAge 3
	} {
		cfg.Horizon = horizon
		_, err := New(cfg)
		if err == nil {
			t.Errorf("horizon %v (> %d windows) accepted", horizon, limit)
		} else if !strings.Contains(err.Error(), strconv.Itoa(limit)) {
			t.Errorf("horizon %v: error %q does not name the %d-window limit", horizon, err, limit)
		}
	}
}

// TestDecayHorizonMinimumIdleTime pins the retirement contract: entries
// retire only after being untouched for *at least* Horizon. Ages count
// whole windows and a fresh entry is already age 1 at the next sweep, so
// without the +1 in the maxAge computation an entry could retire up to one
// window early — and Horizon == Window would wipe the whole graph at every
// boundary.
func TestDecayHorizonMinimumIdleTime(t *testing.T) {
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
	if err := s.Process(rec(base, 1, 2)); err != nil {
		t.Fatal(err)
	}
	// Keep-alive traffic rolls one window boundary at a time.
	for w := int64(1); w <= 2; w++ {
		if err := s.Process(rec(base+4*w*hour, 5, 6)); err != nil {
			t.Fatal(err)
		}
		if !s.Graph().HasVertex(1) {
			t.Fatalf("vertex retired after %dh idle, horizon is 8h", 4*w)
		}
	}
	// The third boundary is the first at which the pair's idle time
	// provably reaches the 8h horizon.
	if err := s.Process(rec(base+12*hour, 5, 6)); err != nil {
		t.Fatal(err)
	}
	if s.Graph().HasVertex(1) || s.Graph().HasVertex(2) {
		t.Error("pair survived past the horizon")
	}
}

// TestDecayExtremeHalfLifeStaysEnabled guards the Exp2 underflow edge: a
// half-life thousands of times shorter than the window underflows the
// per-window factor to zero, which must not silently read as "decay off" —
// retirement has to keep running (weights just collapse to the floor of
// one within a sweep).
func TestDecayExtremeHalfLifeStaysEnabled(t *testing.T) {
	s, err := New(Config{
		Method: MethodHash, K: 2,
		Window:        4 * time.Hour,
		DecayHalfLife: time.Second, // Exp2(-14400) underflows to 0
		Horizon:       4 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !s.decayEnabled() {
		t.Fatal("decay silently disabled by factor underflow")
	}
	base := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	if err := s.Process(rec(base, 1, 2)); err != nil {
		t.Fatal(err)
	}
	// Two quiet windows later the pair must have retired (horizon = 1
	// window at this configuration).
	if err := s.Process(rec(base+9*3600, 3, 4)); err != nil {
		t.Fatal(err)
	}
	if s.Graph().HasVertex(1) || s.Graph().HasVertex(2) {
		t.Error("vertices survived past the horizon: decay sweep never ran")
	}
	if s.Graph().VertexCount() != 2 {
		t.Errorf("live vertices = %d, want 2 (the fresh pair)", s.Graph().VertexCount())
	}
}

// TestFinishIdempotent pins the Finish contract: a second call must not
// flush a duplicate trailing window or change any metric.
func TestFinishIdempotent(t *testing.T) {
	s, err := New(Config{Method: MethodHash, K: 2, Window: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	for i := 0; i < 10; i++ {
		if err := s.Process(rec(base+int64(i)*600, uint64(i%4), uint64((i+1)%4))); err != nil {
			t.Fatal(err)
		}
	}
	first := s.Finish()
	windows := len(first.Windows)
	again := s.Finish()
	if len(again.Windows) != windows {
		t.Fatalf("second Finish appended windows: %d -> %d", windows, len(again.Windows))
	}
	if !reflect.DeepEqual(first, again) {
		t.Error("second Finish changed the result")
	}
}

// finishedResult replays a short decay-mode run and returns only its
// result; done closes once the simulator that produced it is collected.
func finishedResult(t *testing.T) (res *Result, done chan struct{}) {
	s, err := New(Config{Method: MethodMetis, K: 2, Window: time.Hour,
		DecayHalfLife: 2 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	done = make(chan struct{})
	runtime.SetFinalizer(s, func(*Simulator) { close(done) })
	return replayAll(t, s, driftingEras(2, 2)), done
}

// TestFinishDoesNotPinSimulator guards the Result's independence: callers
// cache results long after the run, and a Result pointing into its
// simulator kept every cached run's graph, CSR scratch and callbacks alive.
func TestFinishDoesNotPinSimulator(t *testing.T) {
	res, done := finishedResult(t)
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-done:
			if len(res.Windows) == 0 {
				t.Error("result lost its windows")
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Errorf("simulator still reachable through its %d-window Result after GC", len(res.Windows))
}
