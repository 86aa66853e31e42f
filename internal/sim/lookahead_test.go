package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"ethpart/internal/graph"
	"ethpart/internal/trace"
)

// replayByProcess is the inline oracle of Replay: the hand-driven
// New/Process/Finish loop, which never starts a lookahead.
func replayByProcess(gt *GeneratedTrace, cfg Config) (*Result, error) {
	if cfg.StorageSlots == nil {
		cfg.StorageSlots = gt.StorageSlots
	}
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	for _, rec := range gt.Records {
		if err := s.Process(rec); err != nil {
			return nil, fmt.Errorf("sim: processing record: %w", err)
		}
	}
	return s.Finish(), nil
}

// quietGapRecords is three days of traffic, a week of silence and three
// more days: the roll-over crosses dozens of empty windows at once, and a
// two-day period fires waves inside the gap whose R-METIS window is empty.
func quietGapRecords() []trace.Record {
	rng := rand.New(rand.NewSource(5))
	before := randomRecords(rng, 1500, 300, 3*24*time.Hour)
	after := randomRecords(rng, 1500, 400, 3*24*time.Hour)
	shift := int64((10 * 24 * time.Hour).Seconds())
	for i := range after {
		after[i].Time += shift
	}
	return append(before, after...)
}

// hasEmptyWindowWave reports whether one of the waves fired at the given
// times partitioned a window without records: none of recs fell between it
// and the wave before (the first record, for the first wave).
func hasEmptyWindowWave(recs []trace.Record, waves []time.Time) bool {
	prev := recs[0].Time
	for _, at := range waves {
		empty := true
		for _, r := range recs {
			if r.Time >= prev && r.Time < at.Unix() {
				empty = false
				break
			}
		}
		if empty {
			return true
		}
		prev = at.Unix()
	}
	return false
}

// hasEmptyBoundary reports whether a decay-mode run of cfg over recs
// crosses a window boundary with nothing live, where decayStep skips the
// sweep.
func hasEmptyBoundary(t *testing.T, recs []trace.Record, cfg Config) bool {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := s.Process(rec); err != nil {
			t.Fatal(err)
		}
	}
	for _, obs := range s.Sweeps() {
		if obs.LiveVertices == 0 {
			return true
		}
	}
	return false
}

// TestReplayLookaheadMatchesProcess checks Replay, which plans METIS and
// R-METIS waves ahead on other goroutines, against the inline plan of a
// hand-driven Process loop: equal results for every method on an era trace
// and on a trace with a long quiet gap, decay-mode METIS (planned ahead on
// a decaying replica when a P is spare, so under four Ps and not under one)
// on both, the inline path for the decayed window and autoscale configs,
// and on a failing record the same error with every goroutine joined —
// under one P and under four.
func TestReplayLookaheadMatchesProcess(t *testing.T) {
	era := smallTrace(t)
	gappy := NewGeneratedTrace(quietGapRecords(), nil, nil)
	type cell struct {
		name     string
		gt       *GeneratedTrace
		cfg      Config
		eligible bool
		// spareP marks a cell planned ahead only onto a spare P.
		spareP bool
	}
	var cells []cell
	for _, m := range Methods() {
		eligible := m == MethodMetis || m == MethodRMetis
		cells = append(cells,
			cell{"era/" + m.String(), era, Config{Method: m, K: 4, RepartitionEvery: 24 * time.Hour}, eligible, false},
			cell{"gap/" + m.String(), gappy, Config{Method: m, K: 3, RepartitionEvery: 2 * 24 * time.Hour}, eligible, false})
	}
	decayGap := Config{Method: MethodMetis, K: 3, RepartitionEvery: 2 * 24 * time.Hour, DecayHalfLife: 12 * time.Hour}
	cells = append(cells,
		cell{"decay/METIS", era, Config{Method: MethodMetis, K: 4, RepartitionEvery: 24 * time.Hour, DecayHalfLife: 12 * time.Hour}, true, true},
		cell{"decay-gap/METIS", gappy, decayGap, true, true},
		cell{"decayed-window/R-METIS", era, Config{Method: MethodRMetis, K: 4, RepartitionEvery: 24 * time.Hour,
			DecayHalfLife: 12 * time.Hour, DecayedWindow: true}, false, false},
		cell{"autoscale/R-METIS", era, Config{Method: MethodRMetis, K: 2, RepartitionEvery: 24 * time.Hour,
			Autoscale: AutoscaleConfig{Enabled: true, KMin: 2, KMax: 6, TargetWindowLoad: 150}}, false, false})

	// The gap cells must reach the empty-window wave and the empty-graph
	// boundary they exist for.
	var waves []time.Time
	rm := Config{Method: MethodRMetis, K: 3, RepartitionEvery: 2 * 24 * time.Hour,
		OnRepartition: func(at time.Time, _ int) { waves = append(waves, at) }}
	if _, err := replayByProcess(gappy, rm); err != nil {
		t.Fatal(err)
	}
	if !hasEmptyWindowWave(gappy.Records, waves) {
		t.Fatalf("no R-METIS wave with an empty window among %d waves", len(waves))
	}
	if !hasEmptyBoundary(t, gappy.Records, decayGap) {
		t.Fatal("the decaying graph is never empty at a boundary; the decay-gap cell skips no sweep")
	}

	// A record before the open window fails Process three quarters in,
	// while the lookahead has waves in flight.
	bad := slices.Clone(era.Records)
	bad[len(bad)*3/4].Time = bad[0].Time
	failing := NewGeneratedTrace(bad, era.Registry, nil)

	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, c := range cells {
			t.Run(fmt.Sprintf("procs=%d/%s", procs, c.name), func(t *testing.T) {
				s, err := NewOver(c.gt, c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				ahead := s.ahead != nil
				s.Close()
				if s.lookaheadEligible() != c.eligible {
					t.Fatalf("lookahead eligible = %v, want %v", !c.eligible, c.eligible)
				}
				if wantAhead := c.eligible && (!c.spareP || procs > 1); ahead != wantAhead {
					t.Fatalf("planned ahead = %v, want %v", ahead, wantAhead)
				}
				want, err := replayByProcess(c.gt, c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if c.eligible && want.Repartitions == 0 {
					t.Fatal("no wave fired; the cell checks no lookahead plan")
				}
				got, err := Replay(c.gt, c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("Replay differs from Process: %d repartitions, %d moves, cut %v; want %d, %d, %v",
						got.Repartitions, got.TotalMoves, got.OverallDynamicCut,
						want.Repartitions, want.TotalMoves, want.OverallDynamicCut)
				}
			})
		}
		for _, f := range []struct {
			name string
			cfg  Config
		}{
			{"METIS", Config{Method: MethodMetis, K: 4, RepartitionEvery: 24 * time.Hour}},
			{"R-METIS", Config{Method: MethodRMetis, K: 4, RepartitionEvery: 24 * time.Hour}},
			{"decay/METIS", Config{Method: MethodMetis, K: 4, RepartitionEvery: 24 * time.Hour, DecayHalfLife: 12 * time.Hour}},
		} {
			cfg := f.cfg
			t.Run(fmt.Sprintf("procs=%d/fail/%s", procs, f.name), func(t *testing.T) {
				_, want := replayByProcess(failing, cfg)
				if want == nil {
					t.Fatal("the failing trace replayed without error")
				}
				before := runtime.NumGoroutine()
				_, err := Replay(failing, cfg)
				if err == nil || err.Error() != want.Error() {
					t.Fatalf("Replay error = %v, want %v", err, want)
				}
				// Joined goroutines may take a moment to leave the count.
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n > before {
					t.Errorf("%d goroutines after Replay returned, %d before", n, before)
				}
			})
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestDecayReplicaNeedsSpareP checks when NewOver gives a decay-mode METIS
// run its decaying replica: only while the walks (a running pool's
// workers, or the caller's own), the goroutines held by Occupy and the
// other replicas leave a P free; and every P it took is given back.
func TestDecayReplicaNeedsSpareP(t *testing.T) {
	gt := smallTrace(t)
	cfg := Config{Method: MethodMetis, K: 4, RepartitionEvery: 24 * time.Hour, DecayHalfLife: 12 * time.Hour}
	open := func() *Simulator {
		t.Helper()
		s, err := NewOver(gt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// aheadIn reports, for each worker of a pool of n, whether its
	// simulator planned ahead. Each worker holds its simulator open until
	// all have opened one, so no worker finds the pool's work done and
	// leaves early, which would free its P.
	aheadIn := func(n int) []bool {
		ahead := make([]bool, n)
		var opened sync.WaitGroup
		opened.Add(n)
		RunIndexed(n, func(i int) {
			s, err := NewOver(gt, cfg)
			opened.Done()
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Close()
			ahead[i] = s.ahead != nil
			opened.Wait()
		})
		return ahead
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))

	a, b := open(), open()
	if a.ahead == nil || b.ahead != nil {
		t.Errorf("two simulators on 2 Ps: planned ahead %v, %v; want true, false (the first replica takes the spare P)",
			a.ahead != nil, b.ahead != nil)
	}
	a.Close()
	b.Close()
	release := Occupy()
	if s := open(); s.ahead != nil {
		t.Error("a replica started on 2 Ps beside a walk and an Occupy holder")
		s.Close()
	}
	release()
	if got := aheadIn(2); got[0] || got[1] {
		t.Errorf("a pool of 2 on 2 Ps planned ahead: %v", got)
	}
	if got := aheadIn(1); !got[0] {
		t.Error("a pool of 1 on 2 Ps left the spare P idle")
	}
	runtime.GOMAXPROCS(4)
	if got := aheadIn(2); !got[0] || !got[1] {
		t.Errorf("a pool of 2 on 4 Ps planned ahead: %v, want both", got)
	}
	if p, e := procs.pooled.Load(), procs.extra.Load(); p != 0 || e != 0 {
		t.Errorf("after every simulator closed: %d pooled and %d extra Ps held, want 0", p, e)
	}
}

// TestUnionCSRMatchesBuild checks the lookahead's cumulative CSR — the
// union of per-window CSRs — against CSRBuilder.Build of one graph holding
// every window's records: self-loops, repeats, both directions of an edge
// split across windows, and vertices new in a later window.
func TestUnionCSRMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	recs := randomRecords(rng, 4000, 250, 24*time.Hour)
	full := graph.New()
	var b graph.CSRBuilder
	var cum *graph.CSR
	for start := 0; start < len(recs); {
		end := min(len(recs), start+1+rng.Intn(600))
		win := graph.New()
		for i := start; i < end; i++ {
			if err := recs[i].Apply(win); err != nil {
				t.Fatal(err)
			}
			if err := recs[i].Apply(full); err != nil {
				t.Fatal(err)
			}
		}
		cum = unionCSR(cum, b.Build(win))
		if want := graph.NewCSR(full); !reflect.DeepEqual(cum, want) {
			t.Fatalf("after record %d: union of %d vertices, %d edges; Build has %d, %d",
				end, cum.N(), cum.NumEdges, want.N(), want.NumEdges)
		}
		start = end
	}
}

// TestLookaheadStopJoinsAbandonedRun stops a lookahead whose simulator has
// taken one plan of many, so the lookahead is blocked on a full queue or
// on running partitions: stop must still end it and join every goroutine.
func TestLookaheadStopJoinsAbandonedRun(t *testing.T) {
	gt := smallTrace(t)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		before := runtime.NumGoroutine()
		s, err := New(Config{Method: MethodMetis, K: 4, RepartitionEvery: 6 * time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		s.startLookahead(gt.Records)
		if _, _, err := s.ahead.next(time.Unix(0, 0)); err == nil {
			t.Error("a plan for the wrong boundary was accepted")
		}
		stopped := make(chan struct{})
		go func() {
			s.ahead.stop()
			close(stopped)
		}()
		select {
		case <-stopped:
		case <-time.After(30 * time.Second):
			t.Fatalf("procs=%d: stop did not return", procs)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("procs=%d: %d goroutines after stop, %d before", procs, n, before)
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestFlightsBound checks the lookahead's admission rule: a partition waits
// for the oldest running one while max run or the budget would overflow,
// and always starts when none runs.
func TestFlightsBound(t *testing.T) {
	quit := make(chan struct{})
	f := flights{max: 2, budget: 100}
	a, b := make(chan struct{}), make(chan struct{})
	if !f.wait(150, quit) { // over budget, but nothing runs
		t.Fatal("a lone partition waited")
	}
	f.add(a, 150)
	waited := make(chan bool)
	go func() { waited <- f.wait(10, quit) }()
	select {
	case <-waited:
		t.Fatal("started beside a partition that fills the budget")
	case <-time.After(20 * time.Millisecond):
	}
	close(a)
	if !<-waited || f.load != 0 || len(f.running) != 0 {
		t.Fatalf("after the oldest finished: load %d, %d running", f.load, len(f.running))
	}
	f.add(b, 40)
	f.add(make(chan struct{}), 40)
	go func() { waited <- f.wait(10, quit) }()
	select {
	case <-waited:
		t.Fatal("started a third partition beside max = 2")
	case <-time.After(20 * time.Millisecond):
	}
	close(quit)
	if <-waited {
		t.Fatal("wait reported true after quit")
	}
}

// TestReplayGrownMatchesUngrown: NewOver sizes a full-history cumulative
// graph from the trace's registry (graph.Grow), which may change no result.
// One trace replayed with its registry and without one gives equal results
// for every method, in full history and in decay mode, where nothing is
// grown; and the full-history graph ends holding exactly the registry, the
// size Grow reserved.
func TestReplayGrownMatchesUngrown(t *testing.T) {
	gt := smallTrace(t)
	bare := NewGeneratedTrace(gt.Records, nil, nil)
	replay := func(gt *GeneratedTrace, cfg Config) (*Result, int) {
		t.Helper()
		s, err := NewOver(gt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for _, rec := range gt.Records {
			if err := s.Process(rec); err != nil {
				t.Fatal(err)
			}
		}
		return s.Finish(), s.Graph().VertexCount()
	}
	for _, m := range Methods() {
		for _, decay := range []time.Duration{0, 12 * time.Hour} {
			cfg := Config{Method: m, K: 4, RepartitionEvery: 24 * time.Hour, DecayHalfLife: decay,
				StorageSlots: gt.StorageSlots}
			want, _ := replay(bare, cfg)
			got, vertices := replay(gt, cfg)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v decay=%v: replay with the registry differs from one without", m, decay)
			}
			if decay == 0 && vertices != gt.Registry.Len() {
				t.Errorf("%v: the cumulative graph ends with %d vertices, the registry holds %d", m, vertices, gt.Registry.Len())
			}
		}
	}
}
