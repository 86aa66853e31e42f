package directory

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"ethpart/internal/graph"
)

// The concurrency property pinned here: every snapshot a reader can
// acquire — by loading Current at an arbitrary moment or by re-pinning a
// journaled epoch — is DeepEqual to a mutex-guarded oracle's state at that
// snapshot's epoch, under concurrent lookups, wave commits and retirement
// spills. Because the oracle applies each batch atomically under its lock,
// equality at every epoch is exactly the no-torn-wave guarantee; the test
// runs in CI's -race job, so it also pins the absence of data races in the
// RCU publication path.

// oracleState is one frozen epoch of the oracle: the full mapping plus
// which vertices are cold.
type oracleState struct {
	m    map[graph.VertexID]int
	cold map[graph.VertexID]bool
}

// oracle is the mutex-guarded reference implementation.
type oracle struct {
	mu     sync.Mutex
	cur    oracleState
	epochs map[uint64]oracleState // every epoch ever, for readers to join on
}

func newOracle() *oracle {
	o := &oracle{
		cur:    oracleState{m: map[graph.VertexID]int{}, cold: map[graph.VertexID]bool{}},
		epochs: map[uint64]oracleState{},
	}
	o.epochs[0] = o.snapshot()
	return o
}

func (o *oracle) snapshot() oracleState {
	s := oracleState{
		m:    make(map[graph.VertexID]int, len(o.cur.m)),
		cold: make(map[graph.VertexID]bool, len(o.cur.cold)),
	}
	for k, v := range o.cur.m {
		s.m[k] = v
	}
	for k := range o.cur.cold {
		s.cold[k] = true
	}
	return s
}

// apply mirrors Directory.Commit's semantics and records the post-state
// under the given epoch. It must be called BEFORE the directory commit so
// a reader that observes the new snapshot always finds the oracle entry.
func (o *oracle) apply(epoch uint64, b Batch) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, m := range b.Set {
		o.cur.m[m.V] = m.To
		delete(o.cur.cold, m.V) // sets (re)hydrate into the hot tier
	}
	for _, v := range b.Retire {
		if _, ok := o.cur.m[v]; ok && !o.cur.cold[v] {
			o.cur.cold[v] = true
		}
	}
	o.epochs[epoch] = o.snapshot()
}

func (o *oracle) at(epoch uint64) (oracleState, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	s, ok := o.epochs[epoch]
	return s, ok
}

// materialise converts a directory snapshot into the oracle's shape, through
// the exported read surface only (Each for the mapping, LookupTier for the
// tier), so it holds whatever the tiers are made of.
func materialise(s *Snapshot) oracleState {
	st := oracleState{m: map[graph.VertexID]int{}, cold: map[graph.VertexID]bool{}}
	s.Each(func(v graph.VertexID, shard int) bool {
		st.m[v] = shard
		if _, cold, _ := s.LookupTier(v); cold {
			st.cold[v] = true
		}
		return true
	})
	return st
}

// TestRaceSnapshotsMatchOracle is the linearizability property test: one
// writer drives random place/wave/retire batches into the directory and
// the oracle; reader goroutines concurrently pin snapshots (current and
// journaled) and require them DeepEqual to the oracle at the same epoch.
func TestRaceSnapshotsMatchOracle(t *testing.T) {
	const (
		universe = 3 * pageSize // spans multiple pages
		commits  = 400
		readers  = 4
	)
	d := New(Config{JournalDepth: 8})
	o := newOracle()

	var stop atomic.Bool
	var fail atomic.Value // first reader error, as string

	check := func(s *Snapshot) {
		want, ok := o.at(s.Epoch())
		if !ok {
			fail.CompareAndSwap(nil, "oracle missing epoch")
			return
		}
		got := materialise(s)
		if !reflect.DeepEqual(got, want) {
			fail.CompareAndSwap(nil, "snapshot diverged from oracle")
		}
	}

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				s := d.Current()
				// Point lookups against a consistent pinned view: two
				// reads of the same snapshot must agree even while waves
				// land underneath.
				v := graph.VertexID(rng.Intn(universe))
				a1, ok1 := s.Lookup(v)
				a2, ok2 := s.Lookup(v)
				if a1 != a2 || ok1 != ok2 {
					fail.CompareAndSwap(nil, "pinned snapshot changed between lookups")
					return
				}
				if rng.Intn(8) == 0 {
					check(s)
				}
				// Occasionally re-pin a recent epoch through the journal.
				if e := s.Epoch(); e > 0 && rng.Intn(8) == 0 {
					back := uint64(rng.Intn(4))
					if back > e {
						back = e
					}
					if old, ok := d.AtEpoch(e - back); ok {
						check(old)
					}
				}
			}
		}(int64(r + 1))
	}

	// Single writer: random batches, oracle first (so any published epoch
	// already has its oracle row), then the directory.
	rng := rand.New(rand.NewSource(99))
	placed := make([]graph.VertexID, 0, universe)
	seen := make(map[graph.VertexID]bool)
	for c := 0; c < commits && fail.Load() == nil; c++ {
		var b Batch
		switch rng.Intn(3) {
		case 0: // placement batch
			for i := 0; i < 1+rng.Intn(32); i++ {
				v := graph.VertexID(rng.Intn(universe))
				b.Set = append(b.Set, Move{V: v, To: rng.Intn(4)})
				if !seen[v] {
					seen[v] = true
					placed = append(placed, v)
				}
			}
		case 1: // wave over known vertices
			for i := 0; i < rng.Intn(64); i++ {
				if len(placed) == 0 {
					break
				}
				v := placed[rng.Intn(len(placed))]
				b.Set = append(b.Set, Move{V: v, To: rng.Intn(4)})
			}
		case 2: // retirement sweep
			for i := 0; i < rng.Intn(48); i++ {
				if len(placed) == 0 {
					break
				}
				b.Retire = append(b.Retire, placed[rng.Intn(len(placed))])
			}
		}
		o.apply(d.Epoch()+1, b)
		if _, err := d.Commit(b); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if msg := fail.Load(); msg != nil {
		t.Fatal(msg)
	}

	// Final full-state equivalence.
	final, ok := o.at(d.Epoch())
	if !ok {
		t.Fatal("oracle missing final epoch")
	}
	if got := materialise(d.Current()); !reflect.DeepEqual(got, final) {
		t.Fatal("final directory state diverged from oracle")
	}
}

// TestRaceWavePairsNeverTear pins wave atomicity with an invariant that a
// torn wave would violate directly: vertices are committed in pairs
// (2i, 2i+1) that always share a shard, every wave moves whole pairs, and
// readers assert any snapshot agrees on each pair. A reader observing a
// half-applied wave would see the pair split.
func TestRaceWavePairsNeverTear(t *testing.T) {
	const pairs = 512
	d := New(Config{})
	var init []Move
	for i := 0; i < pairs; i++ {
		init = append(init, Move{V: graph.VertexID(2 * i), To: 0}, Move{V: graph.VertexID(2*i + 1), To: 0})
	}
	if _, err := d.Commit(Batch{Set: init}); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var torn atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				s := d.Current()
				i := rng.Intn(pairs)
				a, okA := s.Lookup(graph.VertexID(2 * i))
				b, okB := s.Lookup(graph.VertexID(2*i + 1))
				if !okA || !okB || a != b {
					torn.Store(true)
					return
				}
			}
		}(int64(r + 1))
	}

	rng := rand.New(rand.NewSource(7))
	for c := 0; c < 300 && !torn.Load(); c++ {
		var wave []Move
		for i := 0; i < pairs; i++ {
			if rng.Intn(4) == 0 {
				to := rng.Intn(4)
				wave = append(wave,
					Move{V: graph.VertexID(2 * i), To: to},
					Move{V: graph.VertexID(2*i + 1), To: to})
			}
		}
		if _, err := d.Commit(Batch{Set: wave}); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if torn.Load() {
		t.Fatal("a reader observed a torn wave: pair split across shards")
	}
}
