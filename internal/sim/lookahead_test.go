package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
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

// TestReplayLookaheadMatchesProcess checks Replay, which plans METIS and
// R-METIS waves ahead on other goroutines, against the inline plan of a
// hand-driven Process loop: equal results for every method on an era trace
// and on a trace with a long quiet gap, the inline path for decay and
// autoscale configs, and on a failing record the same error with every
// goroutine joined — under one P and under four.
func TestReplayLookaheadMatchesProcess(t *testing.T) {
	era := smallTrace(t)
	gappy := NewGeneratedTrace(quietGapRecords(), nil, nil)
	type cell struct {
		name     string
		gt       *GeneratedTrace
		cfg      Config
		eligible bool
	}
	var cells []cell
	for _, m := range Methods() {
		eligible := m == MethodMetis || m == MethodRMetis
		cells = append(cells,
			cell{"era/" + m.String(), era, Config{Method: m, K: 4, RepartitionEvery: 24 * time.Hour}, eligible},
			cell{"gap/" + m.String(), gappy, Config{Method: m, K: 3, RepartitionEvery: 2 * 24 * time.Hour}, eligible})
	}
	cells = append(cells,
		cell{"decay/METIS", era, Config{Method: MethodMetis, K: 4, RepartitionEvery: 24 * time.Hour, DecayHalfLife: 12 * time.Hour}, false},
		cell{"autoscale/R-METIS", era, Config{Method: MethodRMetis, K: 2, RepartitionEvery: 24 * time.Hour,
			Autoscale: AutoscaleConfig{Enabled: true, KMin: 2, KMax: 6, TargetWindowLoad: 150}}, false})

	// The gap cell must reach the empty-window wave it exists for.
	var waves []time.Time
	rm := Config{Method: MethodRMetis, K: 3, RepartitionEvery: 2 * 24 * time.Hour,
		OnRepartition: func(at time.Time, _ int) { waves = append(waves, at) }}
	if _, err := replayByProcess(gappy, rm); err != nil {
		t.Fatal(err)
	}
	if !hasEmptyWindowWave(gappy.Records, waves) {
		t.Fatalf("no R-METIS wave with an empty window among %d waves", len(waves))
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
				s, err := New(c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if s.lookaheadEligible() != c.eligible {
					t.Fatalf("lookahead eligible = %v, want %v", !c.eligible, c.eligible)
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
		for _, m := range []Method{MethodMetis, MethodRMetis} {
			t.Run(fmt.Sprintf("procs=%d/fail/%v", procs, m), func(t *testing.T) {
				cfg := Config{Method: m, K: 4, RepartitionEvery: 24 * time.Hour}
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
