package sim

import (
	"testing"
	"time"

	"ethpart/internal/graph"
	"ethpart/internal/partition"
)

// trigSim builds a TR-METIS simulator with hash placement (so the test can
// steer the dynamic cut precisely) and the given trigger parameters.
func trigSim(t *testing.T, triggerWindows int, gap time.Duration) *Simulator {
	t.Helper()
	s, err := New(Config{
		Method: MethodTRMetis, K: 2,
		Window:            time.Hour,
		MinRepartitionGap: gap,
		TriggerWindows:    triggerWindows,
		CutThreshold:      0.4,
		BalanceThreshold:  99, // balance trigger disabled
	})
	if err != nil {
		t.Fatal(err)
	}
	s.policy.place = placeHash
	return s
}

// hashPairs finds a cross-shard pair and a same-shard pair under k=2 hash
// placement, so a test can emit windows with dynamic cut 1 or 0 at will.
func hashPairs(t *testing.T) (crossA, crossB, localA, localB uint64) {
	t.Helper()
	var h partition.Hash
	s0 := h.ShardOf(graph.VertexID(0), 2)
	crossA, localA = 0, 0
	crossB, localB = 0, 0
	for v := uint64(1); v < 64; v++ {
		if crossB == 0 && h.ShardOf(graph.VertexID(v), 2) != s0 {
			crossB = v
		}
		if localB == 0 && h.ShardOf(graph.VertexID(v), 2) == s0 {
			localB = v
		}
		if crossB != 0 && localB != 0 {
			return
		}
	}
	t.Fatal("no hash pair found in the first 64 IDs")
	return
}

// TestTriggerQuietWindowKeepsBadStreak pins the first trigger fix: a quiet
// window in the middle of a degraded stretch carries no evidence and must
// not erase the streak. With TriggerWindows=3, the sequence
// bad, bad, quiet, bad must fire — the pre-fix state machine reset the
// streak at the quiet window and stayed silent.
func TestTriggerQuietWindowKeepsBadStreak(t *testing.T) {
	s := trigSim(t, 3, time.Hour)
	ca, cb, _, _ := hashPairs(t)
	base := time.Date(2017, 5, 1, 0, 0, 0, 0, time.UTC).Unix()
	hour := int64(3600)
	badWindow := func(w int64) {
		for i := int64(0); i < 10; i++ {
			if err := s.Process(rec(base+w*hour+i*60, ca, cb)); err != nil {
				t.Fatal(err)
			}
		}
	}
	badWindow(0)
	badWindow(1)
	// Window 2 stays quiet; window 3 is degraded again.
	badWindow(3)
	// One sentinel record in window 4 rolls the boundary past window 3.
	if err := s.Process(rec(base+4*hour, ca, ca)); err != nil {
		t.Fatal(err)
	}
	res := s.Finish()
	if res.Repartitions != 1 {
		t.Fatalf("repartitions = %d, want 1 (bad,bad,quiet,bad with TriggerWindows=3)", res.Repartitions)
	}
	if !res.Windows[3].Repartitioned && !res.Windows[4].Repartitioned {
		t.Error("the firing must land at the boundary after the third bad window")
	}
}

// TestTriggerLongQuietGapAgesEvidenceOut pins the staleness bound: a
// quiet gap longer than TriggerWindows windows expires the streak, so
// degradation from before the gap cannot combine with fresh degradation
// into a firing. With TriggerWindows=3: two bad windows, a 10-window
// quiet gap, then one bad window must NOT fire (the streak restarted at
// one); two more bad windows then fire on genuinely consecutive evidence.
func TestTriggerLongQuietGapAgesEvidenceOut(t *testing.T) {
	s := trigSim(t, 3, time.Hour)
	ca, cb, la, _ := hashPairs(t)
	base := time.Date(2017, 5, 1, 0, 0, 0, 0, time.UTC).Unix()
	hour := int64(3600)
	emit := func(w int64, from, to uint64) {
		t.Helper()
		for i := int64(0); i < 10; i++ {
			if err := s.Process(rec(base+w*hour+i*60, from, to)); err != nil {
				t.Fatal(err)
			}
		}
	}
	emit(0, ca, cb)
	emit(1, ca, cb)
	// Windows 2..11 stay quiet (10 > TriggerWindows): the two-window
	// streak ages out. The bad windows 12 and 13 restart the streak at
	// one and reach only two — no firing may happen anywhere up to here,
	// even though 2 (pre-gap) + 2 (post-gap) ≥ TriggerWindows.
	emit(12, ca, cb)
	emit(13, ca, cb)
	emit(14, la, la) // good sentinel: rolls the boundary past window 13
	if got := s.result.Repartitions; got != 0 {
		t.Fatalf("repartitions = %d, want 0 (stale pre-gap evidence must not combine)", got)
	}
	// Window 14 was observed good and reset the streak; three genuinely
	// consecutive bad windows now fire exactly once.
	emit(15, ca, cb)
	emit(16, ca, cb)
	emit(17, ca, cb)
	emit(18, la, la) // sentinel: rolls the boundary past window 17
	res := s.Finish()
	if res.Repartitions != 1 {
		t.Fatalf("repartitions = %d, want 1 (fresh consecutive streak)", res.Repartitions)
	}
	for i, w := range res.Windows {
		if w.Repartitioned && i < 17 {
			t.Errorf("window %d repartitioned before the fresh streak completed", i)
		}
	}
}

// TestTriggerNoFireOnStaleEvidence pins the second trigger fix: a streak
// accumulated while MinRepartitionGap blocked the trigger must not fire by
// itself once the gap elapses — only a fresh degraded window can fire. The
// trace: five bad windows inside the gap, a 20-window quiet stretch during
// which the gap elapses (no fire may happen here), a good-traffic window
// (resets the streak, no fire), then three fresh bad windows (fires).
func TestTriggerNoFireOnStaleEvidence(t *testing.T) {
	s := trigSim(t, 3, 20*time.Hour)
	ca, cb, la, lb := hashPairs(t)
	base := time.Date(2017, 5, 1, 0, 0, 0, 0, time.UTC).Unix()
	hour := int64(3600)
	emit := func(w int64, from, to uint64) {
		t.Helper()
		for i := int64(0); i < 10; i++ {
			if err := s.Process(rec(base+w*hour+i*60, from, to)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for w := int64(0); w < 5; w++ {
		emit(w, ca, cb) // degraded, but the gap blocks any firing
	}
	// Quiet windows 5..24: the gap elapses at window 20. A record at
	// window 25 rolls every quiet boundary; none may fire on the stale
	// streak of five.
	emit(25, la, lb) // good traffic: resets the streak, must not fire
	if got := s.result.Repartitions; got != 0 {
		t.Fatalf("repartitions = %d after stale streak + quiet gap + good window, want 0", got)
	}
	// Fresh evidence: three degraded windows fire on the third.
	emit(26, ca, cb)
	emit(27, ca, cb)
	emit(28, ca, cb)
	emit(29, la, la) // sentinel: rolls the boundary past window 28
	res := s.Finish()
	if res.Repartitions != 1 {
		t.Fatalf("repartitions = %d, want exactly 1 (from the fresh streak)", res.Repartitions)
	}
	for i, w := range res.Windows {
		if w.Repartitioned && i < 28 {
			t.Errorf("window %d repartitioned before the fresh streak completed", i)
		}
	}
}
