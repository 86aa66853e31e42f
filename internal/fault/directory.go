package fault

import (
	"fmt"
	"sync"

	"ethpart/internal/directory"
)

// FlakyDirectory sits between a Publisher and the placement directory and
// injects the directory-degradation faults of a Schedule:
//
//   - transient commit failures (CommitFailEvery, commitFailCount) are
//     absorbed by an internal retry loop — the publisher above never sees
//     them;
//   - repartition wave commits stall for WaveStallFlushes subsequent
//     flushes before landing. Later non-wave commits overtake the stalled
//     wave — safe in this stack because a wave only rehomes vertices that
//     are already placed, while overtaking flushes carry first-sight
//     placements of vertices the wave cannot name; readers pinned past the
//     stalled flip degrade to journaled snapshots with bounded staleness.
//
// Every wave that lands is immediately tear-checked: the committed epoch
// is re-pinned and every move of the batch must read back its destination.
// A failure counts a TornCommit — the invariant `ethpart chaos` requires
// to stay zero.
type FlakyDirectory struct {
	d   *directory.Directory
	c   directory.Committer // commit target; d itself, or a wrapper below
	inj *Injector

	mu      sync.Mutex
	seq     uint64 // commit sequence, keys CommitFailEvery
	stalled []stalledWave
}

type stalledWave struct {
	b      directory.Batch
	remain int
}

// NewFlakyCommitter wraps a committer over d — d itself, or anything that
// ultimately commits into it — with the degradation plan of inj: commits
// land through c (so a replica fan-out below the fault plane ships exactly
// the commits that actually land, in their landed order, with real epoch
// numbers), while the tear check and staleness observations still read d's
// published snapshots.
func NewFlakyCommitter(d *directory.Directory, c directory.Committer, inj *Injector) *FlakyDirectory {
	return &FlakyDirectory{d: d, c: c, inj: inj}
}

// CommitBatch implements directory.Committer. Each call ages the stall
// queue by one flush (landing waves whose stall expired, oldest first)
// before handling its own batch.
func (f *FlakyDirectory) CommitBatch(b directory.Batch, wave bool) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.age(); err != nil {
		return 0, err
	}
	if wave && f.inj.sched.WaveStallFlushes > 0 {
		f.inj.Metrics.WaveStalls.Add(1)
		f.stalled = append(f.stalled, stalledWave{b: b, remain: f.inj.sched.WaveStallFlushes})
		return f.d.Current().Epoch(), nil
	}
	return f.commit(b, wave)
}

// age ticks every stalled wave one flush closer to landing and commits
// the expired ones in arrival order.
func (f *FlakyDirectory) age() error {
	for i := range f.stalled {
		f.stalled[i].remain--
	}
	for len(f.stalled) > 0 && f.stalled[0].remain <= 0 {
		w := f.stalled[0]
		f.stalled = f.stalled[1:]
		if _, err := f.commit(w.b, true); err != nil {
			return err
		}
	}
	return nil
}

// commit lands one batch, absorbing injected transient failures, and
// tear-checks wave flips.
func (f *FlakyDirectory) commit(b directory.Batch, wave bool) (uint64, error) {
	seq := f.seq
	f.seq++
	for attempt := 1; ; attempt++ {
		if f.inj.CommitFails(seq, attempt) {
			continue
		}
		e, err := f.c.CommitBatch(b, wave)
		if err != nil {
			return e, err
		}
		if wave {
			f.tearCheck(e, b)
		}
		return e, nil
	}
}

// tearCheck re-pins the committed epoch and verifies the whole wave is
// visible: a flip must be all-or-nothing, even under injection.
func (f *FlakyDirectory) tearCheck(epoch uint64, b directory.Batch) {
	s, err := f.d.PinEpoch(epoch)
	if err != nil {
		f.inj.Metrics.TornCommits.Add(1)
		return
	}
	for _, m := range b.Set {
		if got, ok := s.Lookup(m.V); !ok || got != m.To {
			f.inj.Metrics.TornCommits.Add(1)
			return
		}
	}
}

// PendingWaves reports how many wave flips are still stalled.
func (f *FlakyDirectory) PendingWaves() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.stalled)
}

// DrainStalls lands every stalled wave immediately (end-of-run cleanup;
// a real deployment's stall always ends).
func (f *FlakyDirectory) DrainStalls() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.stalled) > 0 {
		w := f.stalled[0]
		f.stalled = f.stalled[1:]
		if _, err := f.commit(w.b, true); err != nil {
			return fmt.Errorf("fault: draining stalled wave: %w", err)
		}
	}
	return nil
}
