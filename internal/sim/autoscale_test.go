package sim

import (
	"math"
	"reflect"
	"testing"
	"time"

	"ethpart/internal/evm"
	"ethpart/internal/graph"
	"ethpart/internal/trace"
)

// flashStream is the autoscale tests' private deterministic trace: quiet
// base traffic over a small cohort, a surge phase in which a new cohort
// multiplies the record rate tenfold, then a long cooldown back to base
// load. Window = 4h; each phase window carries its records spread evenly.
func flashStream() []trace.Record {
	base := time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC).Unix()
	var recs []trace.Record
	state := uint64(0xdeadbeefcafef00d)
	next := func(n uint64) uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return (state >> 33) % n
	}
	t := base
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
						return 100 + next(400)
					}
					return next(100)
				}
				recs = append(recs, trace.Record{
					Time: t, Kind: evm.KindTransaction, From: pick(), To: pick(),
				})
				t += step
			}
		}
	}
	return recs
}

func flashConfig(m Method, auto bool) Config {
	cfg := Config{
		Method: m, K: 2,
		Window:            4 * time.Hour,
		RepartitionEvery:  2 * 24 * time.Hour,
		MinRepartitionGap: 8 * time.Hour,
		TriggerWindows:    2,
	}
	if auto {
		cfg.Autoscale = AutoscaleConfig{
			Enabled: true, KMin: 2, KMax: 8, TargetWindowLoad: 100,
		}
	}
	return cfg
}

// TestDefaultThresholdFormulas pins the k-derived TR-METIS trigger
// defaults at both an initial k and the k' a resize might land on — the
// values the controller re-derives on every resize.
func TestDefaultThresholdFormulas(t *testing.T) {
	for _, tc := range []struct {
		k        int
		cut, bal float64
	}{
		{2, 0.45, 1.4},
		{3, 0.6, 1.8},
		{4, 0.675, 2.2},
		{8, 0.7875, 3.8},
	} {
		if got := defaultCutThreshold(tc.k); math.Abs(got-tc.cut) > 1e-12 {
			t.Errorf("defaultCutThreshold(%d) = %v, want %v", tc.k, got, tc.cut)
		}
		if got := defaultBalanceThreshold(tc.k); math.Abs(got-tc.bal) > 1e-12 {
			t.Errorf("defaultBalanceThreshold(%d) = %v, want %v", tc.k, got, tc.bal)
		}
	}
}

// TestResizeRederivesDefaultedThresholds: thresholds the caller left
// defaulted follow k across a resize; caller-pinned values stay pinned.
func TestResizeRederivesDefaultedThresholds(t *testing.T) {
	now := time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC)

	defaulted := flashConfig(MethodTRMetis, true)
	s, err := New(defaulted)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.cfg.CutThreshold, defaultCutThreshold(2); got != want {
		t.Fatalf("initial defaulted cut threshold = %v, want %v", got, want)
	}
	if err := s.wave(now, 4); err != nil {
		t.Fatal(err)
	}
	if got, want := s.cfg.CutThreshold, defaultCutThreshold(4); got != want {
		t.Errorf("after resize to 4: cut threshold = %v, want re-derived %v", got, want)
	}
	if got, want := s.cfg.BalanceThreshold, defaultBalanceThreshold(4); got != want {
		t.Errorf("after resize to 4: balance threshold = %v, want re-derived %v", got, want)
	}

	pinned := flashConfig(MethodTRMetis, true)
	pinned.CutThreshold = 0.33
	pinned.BalanceThreshold = 1.77
	s2, err := New(pinned)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.wave(now, 4); err != nil {
		t.Fatal(err)
	}
	if s2.cfg.CutThreshold != 0.33 || s2.cfg.BalanceThreshold != 1.77 {
		t.Errorf("resize moved caller-pinned thresholds: cut=%v bal=%v",
			s2.cfg.CutThreshold, s2.cfg.BalanceThreshold)
	}
}

// TestAutoscaleValidation: an initial K outside [KMin, KMax] is rejected at
// construction.
func TestAutoscaleValidation(t *testing.T) {
	cfg := flashConfig(MethodMetis, true)
	cfg.Autoscale.KMin = 4 // K=2 below the floor
	if _, err := New(cfg); err == nil {
		t.Error("New accepted initial K below KMin")
	}
}

// TestAutoscaleSplitsAndMerges is the controller's headline behaviour on
// the flash-crowd stream: it splits while the surge saturates the fleet
// and merges the extra shards away once traffic subsides, for both the
// graph-aware and the hash planner. After every replay the incrementally
// maintained cut counters must match the from-scratch recount oracle, and
// no assignment may point at a dropped shard.
func TestAutoscaleSplitsAndMerges(t *testing.T) {
	recs := flashStream()
	for _, m := range []Method{MethodTRMetis, MethodHash} {
		s, err := New(flashConfig(m, true))
		if err != nil {
			t.Fatal(err)
		}
		res := replayAll(t, s, recs)
		var splits, merges int
		for _, ev := range res.Resizes {
			if ev.ToK > ev.FromK {
				splits++
			} else {
				merges++
			}
			if ev.FromK == ev.ToK {
				t.Errorf("%v: no-op resize event %+v", m, ev)
			}
		}
		if splits == 0 || merges == 0 {
			t.Fatalf("%v: flash crowd produced %d splits, %d merges (want both > 0); events: %+v",
				m, splits, merges, res.Resizes)
		}
		finalK := res.Resizes[len(res.Resizes)-1].ToK
		if s.cfg.K != finalK {
			t.Errorf("%v: simulator K = %d, last resize event says %d", m, s.cfg.K, finalK)
		}
		if res.Windows[len(res.Windows)-1].Shards != finalK {
			t.Errorf("%v: final window reports %d shards, want %d",
				m, res.Windows[len(res.Windows)-1].Shards, finalK)
		}
	}
}

// TestAutoscaleCountersMatchOracle re-verifies the incremental cut state
// against the from-scratch recount after a replay with resizes in it.
func TestAutoscaleCountersMatchOracle(t *testing.T) {
	recs := flashStream()
	s, err := New(flashConfig(MethodTRMetis, true))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := s.Process(r); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.result.Resizes) == 0 {
		t.Fatal("no resizes fired; oracle check is vacuous")
	}
	ce, te := s.cutEdges, s.totalEdges
	s.recountCut()
	if ce != s.cutEdges || te != s.totalEdges {
		t.Errorf("incremental counters diverged from recount across resizes: edges %d/%d vs %d/%d",
			ce, te, s.cutEdges, s.totalEdges)
	}
	// Every assignment must target a live shard at the final k.
	k := s.cfg.K
	s.assign.Each(func(v graph.VertexID, shard int) bool {
		if shard >= k {
			t.Errorf("vertex %d assigned to dropped shard %d (k=%d)", v, shard, k)
		}
		return true
	})
}

// TestAutoscaleDisabledByteIdentical pins the opt-in contract: with the
// controller disabled the simulator must produce results byte-identical
// to a pre-autoscaler configuration, and arming it with bounds that can
// never fire (KMin = K = KMax) must change nothing either.
func TestAutoscaleDisabledByteIdentical(t *testing.T) {
	recs := flashStream()
	for _, m := range []Method{MethodHash, MethodMetis, MethodTRMetis} {
		base, err := New(flashConfig(m, false))
		if err != nil {
			t.Fatal(err)
		}
		want := replayAll(t, base, recs)
		if want.Resizes != nil {
			t.Fatalf("%v: disabled run recorded resizes", m)
		}

		pinnedCfg := flashConfig(m, true)
		pinnedCfg.Autoscale.KMin = 2
		pinnedCfg.Autoscale.KMax = 2
		pinned, err := New(pinnedCfg)
		if err != nil {
			t.Fatal(err)
		}
		got := replayAll(t, pinned, recs)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: armed-but-pinned autoscaler changed the result", m)
		}
	}
}

// TestAutoscaleCooldownShared: a resize advances the shared wave clock, so
// the repartition policy cannot fire again until its own gap has elapsed —
// and vice versa, the controller respects a recent repartition.
func TestAutoscaleCooldownShared(t *testing.T) {
	recs := flashStream()
	s, err := New(flashConfig(MethodTRMetis, true))
	if err != nil {
		t.Fatal(err)
	}
	res := replayAll(t, s, recs)
	gap := 8 * time.Hour // the config's MinRepartitionGap, the resize cooldown
	var events []time.Time
	for _, ev := range res.Resizes {
		events = append(events, ev.At)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Sub(events[i-1]) < gap {
			t.Errorf("resizes %d and %d fired %v apart, inside the %v cooldown",
				i-1, i, events[i].Sub(events[i-1]), gap)
		}
	}
}
