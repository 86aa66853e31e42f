package fault

import (
	"errors"
	"slices"
	"testing"

	"ethpart/internal/directory"
	"ethpart/internal/graph"
)

func mustNew(t *testing.T, s Schedule) *Injector {
	t.Helper()
	inj, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// TestDeliveryDeterministic pins the plane's core property: two injectors
// built from the same schedule make identical decisions for every
// (id, attempt), and the decision streams for distinct fault kinds are
// decorrelated (changing the seed changes outcomes).
func TestDeliveryDeterministic(t *testing.T) {
	s := Schedule{Seed: 42, DropProb: 0.3, DelayProb: 0.3, DupProb: 0.3}
	a, b := mustNew(t, s), mustNew(t, s)
	diff := 0
	other := mustNew(t, Schedule{Seed: 43, DropProb: 0.3, DelayProb: 0.3, DupProb: 0.3})
	for id := uint64(1); id <= 500; id++ {
		for attempt := 1; attempt <= 3; attempt++ {
			oa, ob := a.Delivery(id, attempt), b.Delivery(id, attempt)
			if oa != ob {
				t.Fatalf("id=%d attempt=%d: %+v vs %+v", id, attempt, oa, ob)
			}
			if oa != other.Delivery(id, attempt) {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Error("seed change did not change any outcome")
	}
}

// TestDeliveryAtLeastOnce pins the redelivery bound: even with certain
// drops, attempt maxAttempts always delivers, and backoff stays capped.
func TestDeliveryAtLeastOnce(t *testing.T) {
	inj := mustNew(t, Schedule{Seed: 7, DropProb: 1.0})
	for id := uint64(1); id <= 100; id++ {
		for attempt := 1; attempt < maxAttempts; attempt++ {
			o := inj.Delivery(id, attempt)
			if !o.Drop {
				t.Fatalf("id=%d attempt=%d: DropProb=1 did not drop", id, attempt)
			}
			if o.Backoff == 0 || o.Backoff > 8 {
				t.Fatalf("id=%d attempt=%d: backoff %d outside (0,8]", id, attempt, o.Backoff)
			}
		}
		if o := inj.Delivery(id, maxAttempts); o.Drop {
			t.Fatalf("id=%d: final attempt dropped — delivery is not at-least-once", id)
		}
	}
}

// TestScheduleValidation rejects malformed schedules.
func TestScheduleValidation(t *testing.T) {
	bad := []Schedule{
		{DropProb: -0.1},
		{DupProb: 1.5},
		{DelayProb: 2},
		{Crashes: []Crash{{Block: 3, Shard: -1}}},
		{WaveStallFlushes: -1},
		{CommitFailEvery: -2},
	}
	for i, s := range bad {
		if _, err := New(s); err == nil {
			t.Errorf("schedule %d accepted: %+v", i, s)
		}
	}
	if _, err := New(Schedule{}); err != nil {
		t.Errorf("zero schedule rejected: %v", err)
	}
}

// TestPeriodicCrashesDegenerate: a zero period would never reach maxBlock
// and a shard count below one has no victim to rotate over; both schedule
// nothing.
func TestPeriodicCrashesDegenerate(t *testing.T) {
	for _, tc := range []struct {
		every uint64
		k     int
	}{{0, 3}, {5, 0}, {5, -1}, {0, 0}} {
		if cs := PeriodicCrashes(tc.every, 20, tc.k); cs != nil {
			t.Errorf("PeriodicCrashes(%d, 20, %d) = %v, want nil", tc.every, tc.k, cs)
		}
	}
}

// TestPeriodicCrashes pins the helper's rotation and the injector's
// per-block lookup.
func TestPeriodicCrashes(t *testing.T) {
	cs := PeriodicCrashes(5, 20, 3)
	want := []Crash{{5, 0}, {10, 1}, {15, 2}, {20, 0}}
	if len(cs) != len(want) {
		t.Fatalf("got %d crashes, want %d", len(cs), len(want))
	}
	for i := range want {
		if cs[i] != want[i] {
			t.Errorf("crash %d = %+v, want %+v", i, cs[i], want[i])
		}
	}
	inj := mustNew(t, Schedule{Crashes: cs})
	if !inj.HasCrashes() {
		t.Error("HasCrashes false with a crash schedule")
	}
	if got := inj.CrashedShards(10); len(got) != 1 || got[0] != 1 {
		t.Errorf("CrashedShards(10) = %v", got)
	}
	if got := inj.CrashedShards(11); got != nil {
		t.Errorf("CrashedShards(11) = %v, want none", got)
	}
	// Victims are a set: a shard named twice for a block crashes once.
	inj = mustNew(t, Schedule{Crashes: []Crash{{3, 2}, {3, 0}, {3, 2}, {3, 0}}})
	if got := inj.CrashedShards(3); !slices.Equal(got, []int{0, 2}) {
		t.Errorf("CrashedShards(3) = %v, want [0 2]", got)
	}
}

// TestCommitFails pins the transient-failure cadence: every Nth commit
// fails commitFailCount (2) times, then succeeds; others never fail.
func TestCommitFails(t *testing.T) {
	inj := mustNew(t, Schedule{CommitFailEvery: 3})
	for seq := uint64(0); seq < 10; seq++ {
		shouldFail := seq != 0 && seq%3 == 0
		for attempt := 1; attempt <= 4; attempt++ {
			got := inj.CommitFails(seq, attempt)
			want := shouldFail && attempt <= 2
			if got != want {
				t.Errorf("CommitFails(%d, %d) = %v, want %v", seq, attempt, got, want)
			}
		}
	}
}

// TestFlakyDirectoryWaveStall pins the degradation path: a wave commit
// stalls for the configured number of flushes while non-wave commits
// overtake it, then lands intact (tear check clean).
func TestFlakyDirectoryWaveStall(t *testing.T) {
	d := directory.New(directory.Config{})
	inj := mustNew(t, Schedule{WaveStallFlushes: 2})
	f := NewFlakyCommitter(d, d, inj)

	if _, err := f.CommitBatch(directory.Batch{Set: []directory.Move{{V: 1, To: 0}, {V: 2, To: 1}}}, false); err != nil {
		t.Fatal(err)
	}
	wave := directory.Batch{Set: []directory.Move{{V: 1, To: 1}, {V: 2, To: 0}}}
	if _, err := f.CommitBatch(wave, true); err != nil {
		t.Fatal(err)
	}
	if f.PendingWaves() != 1 {
		t.Fatalf("PendingWaves = %d after wave commit, want 1", f.PendingWaves())
	}
	// The stalled wave must not be visible; later placements overtake it.
	if sh, _ := d.Current().Lookup(1); sh != 0 {
		t.Error("stalled wave became visible early")
	}
	if _, err := f.CommitBatch(directory.Batch{Set: []directory.Move{{V: 3, To: 2}}}, false); err != nil {
		t.Fatal(err)
	}
	if f.PendingWaves() != 1 {
		t.Fatalf("wave landed after one flush, want two")
	}
	if _, err := f.CommitBatch(directory.Batch{Set: []directory.Move{{V: 4, To: 2}}}, false); err != nil {
		t.Fatal(err)
	}
	if f.PendingWaves() != 0 {
		t.Fatalf("PendingWaves = %d after stall expiry, want 0", f.PendingWaves())
	}
	// The whole wave is visible atomically, alongside the overtakers.
	for v, want := range map[graph.VertexID]int{1: 1, 2: 0, 3: 2, 4: 2} {
		if sh, ok := d.Current().Lookup(v); !ok || sh != want {
			t.Errorf("Lookup(%d) = %d,%v, want %d", v, sh, ok, want)
		}
	}
	// The wave landed as its own epoch, after the three placements.
	if e := d.Current().Epoch(); e != 4 {
		t.Errorf("epoch %d after three placements and the landed wave, want 4", e)
	}
	if stalls, torn := inj.Metrics.WaveStalls.Load(), inj.Metrics.TornCommits.Load(); stalls != 1 || torn != 0 {
		t.Errorf("%d stalls, %d torn commits; want 1 and 0", stalls, torn)
	}
}

// TestFlakyDirectoryDrainStalls pins end-of-run cleanup: stalled waves
// land immediately, in order.
func TestFlakyDirectoryDrainStalls(t *testing.T) {
	d := directory.New(directory.Config{})
	inj := mustNew(t, Schedule{WaveStallFlushes: 100})
	f := NewFlakyCommitter(d, d, inj)
	if _, err := f.CommitBatch(directory.Batch{Set: []directory.Move{{V: 1, To: 0}}}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := f.CommitBatch(directory.Batch{Set: []directory.Move{{V: 1, To: 1}}}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := f.CommitBatch(directory.Batch{Set: []directory.Move{{V: 1, To: 2}}}, true); err != nil {
		t.Fatal(err)
	}
	if err := f.DrainStalls(); err != nil {
		t.Fatal(err)
	}
	if f.PendingWaves() != 0 {
		t.Fatal("DrainStalls left pending waves")
	}
	// The later wave wins — arrival order preserved.
	if sh, _ := d.Current().Lookup(1); sh != 2 {
		t.Errorf("Lookup(1) = %d after drain, want 2 (later wave last)", sh)
	}
}

// TestFlakyDirectoryCommitFailures pins the retry loop: injected
// transient failures are absorbed — the caller never sees them, and each
// commit still lands as exactly one epoch.
func TestFlakyDirectoryCommitFailures(t *testing.T) {
	d := directory.New(directory.Config{})
	inj := mustNew(t, Schedule{CommitFailEvery: 1})
	f := NewFlakyCommitter(d, d, inj)
	for i := 1; i <= 4; i++ {
		if _, err := f.CommitBatch(directory.Batch{Set: []directory.Move{{V: graph.VertexID(i), To: 0}}}, false); err != nil {
			t.Fatal(err)
		}
	}
	// seq 0 never fails; seqs 1..3 fail commitFailCount (2) times each.
	fails := 0
	for seq := uint64(0); seq < 4; seq++ {
		for attempt := 1; inj.CommitFails(seq, attempt); attempt++ {
			fails++
		}
	}
	if fails != 6 {
		t.Fatalf("the schedule fails %d commit attempts, want 6: the retry loop went untested", fails)
	}
	if e := d.Current().Epoch(); e != 4 {
		t.Errorf("epoch %d after four commits, want 4 — a failed attempt burned an epoch", e)
	}
	if d.Current().Len() != 4 {
		t.Errorf("entries = %d, want 4 — a transient failure leaked", d.Current().Len())
	}
}

// TestMetricsMaxLag pins the high-water helper.
func TestMetricsMaxLag(t *testing.T) {
	var m Metrics
	for _, lag := range []uint64{2, 5, 3} {
		m.MaxLag(lag)
	}
	if got := m.MaxEpochLag.Load(); got != 5 {
		t.Errorf("MaxEpochLag = %d, want 5", got)
	}
}

var _ = errors.Is // keep errors imported if assertions above change

// TestScheduleShardsValidation is the elastic-k satellite's compile-time
// check: a schedule that declares its shard universe rejects crash entries
// naming shards outside it, so a fault plan written for k=8 fails fast when
// replayed against a k=4 run instead of silently never firing.
func TestScheduleShardsValidation(t *testing.T) {
	if _, err := New(Schedule{Shards: 4, Crashes: []Crash{{Block: 3, Shard: 4}}}); err == nil {
		t.Error("crash naming shard 4 accepted with Shards: 4")
	}
	if _, err := New(Schedule{Shards: -1}); err == nil {
		t.Error("negative Shards accepted")
	}
	// In-range entries and the undeclared (Shards: 0) legacy shape pass.
	if _, err := New(Schedule{Shards: 4, Crashes: []Crash{{Block: 3, Shard: 3}}}); err != nil {
		t.Errorf("in-range crash rejected: %v", err)
	}
	if _, err := New(Schedule{Crashes: []Crash{{Block: 3, Shard: 99}}}); err != nil {
		t.Errorf("undeclared-universe schedule rejected: %v", err)
	}
}
