package directory

import (
	"math/rand"
	"slices"
	"testing"

	"ethpart/internal/graph"
)

// The model-based property: a directory fed random batches in all four
// lanes answers, after every commit, exactly as a plain map applying the
// same batches does — every lookup and its tier, Len and HotLen, the hot
// page count, Each's order — and a snapshot pinned through the journal
// still answers as the map did at that snapshot's epoch. The IDs crowd a
// few leaves of three pages, so a batch writes one leaf or page several
// times, and pages empty, drop and come back, often within one commit.

// modelEntry is one mapped vertex of the model.
type modelEntry struct {
	shard int
	cold  bool
}

// model is the reference: a map from vertex to entry, never shared, so a
// state kept for an epoch is a copy.
type model map[graph.VertexID]modelEntry

// apply mirrors Commit's lane semantics, lane by lane in Commit's order.
func (m model) apply(b Batch) {
	for _, mv := range b.Set {
		m[mv.V] = modelEntry{shard: mv.To}
	}
	for _, mv := range b.SetCold {
		e, ok := m[mv.V]
		m[mv.V] = modelEntry{shard: mv.To, cold: !ok || e.cold}
	}
	for _, v := range b.Promote {
		if e, ok := m[v]; ok && e.cold {
			m[v] = modelEntry{shard: e.shard}
		}
	}
	for _, v := range b.Retire {
		if e, ok := m[v]; ok && !e.cold {
			m[v] = modelEntry{shard: e.shard, cold: true}
		}
	}
}

// hotPages is the page count Stats reports: pages holding a hot entry.
func (m model) hotPages() int {
	pages := map[graph.VertexID]bool{}
	for v, e := range m {
		if !e.cold {
			pages[v>>pageBits] = true
		}
	}
	return len(pages)
}

// check compares snapshot s against m over every ID below universe (and a
// few past it), and Each's order against m's sorted hot, then cold, IDs.
func (m model) check(t *testing.T, what string, s *Snapshot, universe graph.VertexID) {
	t.Helper()
	hot := 0
	var want []graph.VertexID
	for v, e := range m {
		if !e.cold {
			hot++
		}
		want = append(want, v)
	}
	slices.SortFunc(want, func(a, b graph.VertexID) int {
		if ca, cb := m[a].cold, m[b].cold; ca != cb {
			if ca {
				return 1
			}
			return -1
		}
		return int(a) - int(b)
	})
	if s.Len() != len(m) || s.HotLen() != hot {
		t.Fatalf("%s: Len %d HotLen %d, want %d and %d", what, s.Len(), s.HotLen(), len(m), hot)
	}
	for v := graph.VertexID(0); v < universe+2*pageSize; v++ {
		sh, cold, ok := s.LookupTier(v)
		e, in := m[v]
		if ok != in || (in && (sh != e.shard || cold != e.cold)) || (!in && (sh != NoShard || cold)) {
			t.Fatalf("%s: vertex %d answers (%d, cold=%v, %v), want %+v (mapped %v)", what, v, sh, cold, ok, e, in)
		}
	}
	var got []graph.VertexID
	s.Each(func(v graph.VertexID, shard int) bool {
		if shard != m[v].shard {
			t.Fatalf("%s: Each gives %d shard %d, want %d", what, v, shard, m[v].shard)
		}
		got = append(got, v)
		return true
	})
	if !slices.Equal(got, want) {
		t.Fatalf("%s: Each visits %v, want %v", what, got, want)
	}
}

// clone copies m, for keeping it as an epoch's state.
func (m model) clone() model {
	c := make(model, len(m))
	for v, e := range m {
		c[v] = e
	}
	return c
}

// modelCommit commits b to d and m and checks the new view, Stats.Pages
// and one journaled epoch against the states kept in past.
func modelCommit(t *testing.T, rng *rand.Rand, d *Directory, m model, past map[uint64]model, b Batch, universe graph.VertexID) {
	t.Helper()
	e := mustCommit(t, d, b)
	m.apply(b)
	past[e] = m.clone()
	delete(past, e-uint64(len(d.journal)))
	m.check(t, "current", d.Current(), universe)
	if got, want := d.Stats().Pages, m.hotPages(); got != want {
		t.Fatalf("epoch %d: Stats.Pages %d, want %d", e, got, want)
	}
	pin := e - uint64(rng.Intn(int(min(e, uint64(len(d.journal))))))
	s, err := d.PinEpoch(pin)
	if err != nil {
		t.Fatalf("epoch %d: %v", e, err)
	}
	past[pin].check(t, "pinned", s, universe)
}

func TestModelMatchesMapOracle(t *testing.T) {
	const (
		universe = 3 * pageSize
		commits  = 1500
	)
	// A vertex is drawn from four leaves of each page, three slots per leaf:
	// 36 IDs, 12 a page, so pages fill, empty and refill.
	leaves := []graph.VertexID{0, 3, 9, leavesPerPage - 1}
	offsets := []graph.VertexID{0, 31, leafMask}
	rng := rand.New(rand.NewSource(1))
	draw := func() graph.VertexID {
		return graph.VertexID(rng.Intn(3))<<pageBits |
			leaves[rng.Intn(len(leaves))]<<leafBits | offsets[rng.Intn(len(offsets))]
	}
	// Shards span the whole slot range: mostly a few small ones, so entries
	// are often rewritten to the shard they hold, else the top slot value or
	// any value below it.
	shard := func() int {
		switch rng.Intn(4) {
		case 0:
			return maxShards - 1
		case 1:
			return rng.Intn(maxShards)
		}
		return rng.Intn(4)
	}
	moves := func(n int) []Move {
		out := make([]Move, n)
		for i := range out {
			out[i] = Move{V: draw(), To: shard()}
		}
		return out
	}
	ids := func(n int) []graph.VertexID {
		out := make([]graph.VertexID, n)
		for i := range out {
			out[i] = draw()
		}
		return out
	}

	d := New(Config{JournalDepth: 8})
	m := model{}
	past := map[uint64]model{0: {}}
	for c := 0; c < commits; c++ {
		b := Batch{Set: moves(rng.Intn(8)), SetCold: moves(rng.Intn(5)), Promote: ids(rng.Intn(5)), Retire: ids(rng.Intn(10))}
		if c == 0 {
			b.Shards = maxShards
		}
		modelCommit(t, rng, d, m, past, b, universe)
	}
}

// TestColdPageEmptiedAndRewrittenInOneCommit: one commit re-hydrates both
// entries of a cold page through Set — the first clear copies its leaf, the
// second empties the page, which is dropped — then writes two unknown IDs
// into the same page through SetCold. The page node comes back empty, so
// the leaf copied before the drop must be copied again, not written through
// a stamp that outlived its page.
func TestColdPageEmptiedAndRewrittenInOneCommit(t *testing.T) {
	const page = 1
	id := func(leaf, off graph.VertexID) graph.VertexID {
		return page<<pageBits | leaf<<leafBits | off
	}
	a, b := id(2, 5), id(9, 7)
	for _, tc := range []struct {
		name string
		c, d graph.VertexID
	}{
		{"other leaves", id(4, 0), id(12, leafMask)},
		{"the emptied leaves", id(2, 6), id(9, 8)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			d := New(Config{})
			m := model{}
			past := map[uint64]model{0: {}}
			commit := func(bt Batch) { modelCommit(t, rng, d, m, past, bt, 3*pageSize) }
			commit(Batch{Set: []Move{{V: a, To: 0}, {V: b, To: 1}, {V: 0, To: 2}}, Shards: 4})
			commit(Batch{Retire: []graph.VertexID{a, b}})
			before := d.Current()
			if before.cold.allocated() != 1 {
				t.Fatalf("setup: %d cold pages, want 1", before.cold.allocated())
			}
			commit(Batch{
				Set:     []Move{{V: a, To: 3}, {V: b, To: 2}},
				SetCold: []Move{{V: tc.c, To: 1}, {V: tc.d, To: 0}},
			})
			if got := d.Current().cold.allocated(); got != 1 {
				t.Errorf("%d cold pages after the rewrite, want 1", got)
			}
			past[before.Epoch()].check(t, "the view before", before, 3*pageSize)
		})
	}
}
