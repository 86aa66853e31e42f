package directory

import (
	"math/rand"
	"slices"
	"testing"

	"ethpart/internal/graph"
)

func mustCommit(t *testing.T, d *Directory, b Batch) uint64 {
	t.Helper()
	e, err := d.CommitBatch(b, false)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEmptyDirectory(t *testing.T) {
	d := New(Config{})
	s := d.Current()
	if s.Epoch() != 0 || s.Len() != 0 {
		t.Fatalf("empty directory: epoch=%d len=%d", s.Epoch(), s.Len())
	}
	if _, ok := s.Lookup(7); ok {
		t.Error("lookup on empty directory succeeded")
	}
	if got, ok := d.AtEpoch(0); !ok || got != s {
		t.Error("epoch 0 not journaled")
	}
}

func TestPlaceAndLookup(t *testing.T) {
	d := New(Config{})
	place := func(v graph.VertexID, shard int) error {
		_, err := d.CommitBatch(Batch{Set: []Move{{V: v, To: shard}}}, false)
		return err
	}
	if err := place(3, 1); err != nil {
		t.Fatal(err)
	}
	if err := place(5000, 2); err != nil { // second page
		t.Fatal(err)
	}
	s := d.Current()
	if sh, ok := s.Lookup(3); !ok || sh != 1 {
		t.Errorf("Lookup(3) = %d,%v", sh, ok)
	}
	if sh, ok := s.Lookup(5000); !ok || sh != 2 {
		t.Errorf("Lookup(5000) = %d,%v", sh, ok)
	}
	if _, ok := s.Lookup(4); ok {
		t.Error("unmapped vertex resolved")
	}
	if s.Len() != 2 || s.HotLen() != 2 || s.ColdLen() != 0 {
		t.Errorf("len=%d hot=%d cold=%d", s.Len(), s.HotLen(), s.ColdLen())
	}
	// Overwrite is not a new entry.
	if err := place(3, 0); err != nil {
		t.Fatal(err)
	}
	if s := d.Current(); s.Len() != 2 {
		t.Errorf("overwrite changed len to %d", s.Len())
	}
	if err := place(3, -1); err == nil {
		t.Error("negative shard accepted")
	}
}

func TestWaveCommitIsOneEpochAndOldSnapshotsFrozen(t *testing.T) {
	d := New(Config{})
	var init []Move
	for v := graph.VertexID(0); v < 100; v++ {
		init = append(init, Move{V: v, To: 0})
	}
	mustCommit(t, d, Batch{Set: init})
	before := d.Current()

	// One wave moves half the vertices; exactly one epoch flip.
	var wave []Move
	for v := graph.VertexID(0); v < 100; v += 2 {
		wave = append(wave, Move{V: v, To: 1})
	}
	e := mustCommit(t, d, Batch{Set: wave})
	if e != before.Epoch()+1 {
		t.Fatalf("wave committed as epoch %d, want %d", e, before.Epoch()+1)
	}
	after := d.Current()
	for v := graph.VertexID(0); v < 100; v++ {
		// The pre-wave snapshot must be completely untouched.
		if sh, _ := before.Lookup(v); sh != 0 {
			t.Fatalf("pinned snapshot saw wave: vertex %d on shard %d", v, sh)
		}
		want := 0
		if v%2 == 0 {
			want = 1
		}
		if sh, _ := after.Lookup(v); sh != want {
			t.Fatalf("post-wave vertex %d on shard %d, want %d", v, sh, want)
		}
	}
}

func TestRetireSpillsToColdAndRehydrates(t *testing.T) {
	d := New(Config{})
	mustCommit(t, d, Batch{Set: []Move{{V: 10, To: 2}, {V: 11, To: 1}}})
	mustCommit(t, d, Batch{Retire: []graph.VertexID{10, 999 /* unknown: no-op */}})

	s := d.Current()
	// Retirement relocates, never changes the answer.
	if sh, ok := s.Lookup(10); !ok || sh != 2 {
		t.Fatalf("retired vertex lost: %d,%v", sh, ok)
	}
	if s.HotLen() != 1 || s.ColdLen() != 1 || s.Len() != 2 {
		t.Fatalf("hot=%d cold=%d len=%d after retire", s.HotLen(), s.ColdLen(), s.Len())
	}
	// Double retire is a no-op.
	mustCommit(t, d, Batch{Retire: []graph.VertexID{10}})
	if s := d.Current(); s.ColdLen() != 1 || s.Len() != 2 {
		t.Fatalf("double retire changed counts: cold=%d len=%d", s.ColdLen(), s.Len())
	}
	// A wave touching a cold entry promotes it back to the hot tier.
	mustCommit(t, d, Batch{Set: []Move{{V: 10, To: 0}}})
	s = d.Current()
	if sh, ok := s.Lookup(10); !ok || sh != 0 {
		t.Fatalf("rehydrated vertex: %d,%v", sh, ok)
	}
	if s.HotLen() != 2 || s.ColdLen() != 0 || s.Len() != 2 {
		t.Fatalf("hot=%d cold=%d len=%d after rehydrate", s.HotLen(), s.ColdLen(), s.Len())
	}
	if st := d.Stats(); st.Retired != 1 || st.Rehydrated != 1 {
		t.Errorf("stats retired=%d rehydrated=%d, want 1/1", st.Retired, st.Rehydrated)
	}
}

// TestRejectedBatchLeavesNoTrace pins the validate-before-mutate contract:
// a batch rejected mid-way (a bad entry after valid ones) must leave the
// published view AND the writer's occupancy bookkeeping untouched —
// otherwise the live counts drift above real occupancy and the page-drop
// compaction can never fire for that page again.
func TestRejectedBatchLeavesNoTrace(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    Batch
	}{
		{"negative shard", Batch{Set: []Move{{V: 2, To: 1}, {V: 3, To: -1}}}},
		{"set out-of-range ID", Batch{Set: []Move{{V: 2, To: 1}, {V: graph.MaxVertexID, To: 0}}}},
		{"set-cold out-of-range ID", Batch{Set: []Move{{V: 2, To: 1}}, SetCold: []Move{{V: 3, To: 0}, {V: 1 << 40, To: 0}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := New(Config{})
			mustCommit(t, d, Batch{Set: []Move{{V: 1, To: 0}}})
			if _, err := d.CommitBatch(tc.b, false); err == nil {
				t.Fatal("batch accepted")
			}
			s := d.Current()
			if s.Epoch() != 1 || s.Len() != 1 {
				t.Fatalf("rejected batch leaked: epoch=%d len=%d", s.Epoch(), s.Len())
			}
			for _, v := range []graph.VertexID{2, 3} {
				if _, ok := s.Lookup(v); ok {
					t.Errorf("rejected batch's valid prefix is visible at %d", v)
				}
			}
			// The occupancy bookkeeping must still be exact: retiring the
			// one real entry empties page 0 and drops it.
			mustCommit(t, d, Batch{Retire: []graph.VertexID{1}})
			if st := d.Stats(); st.Pages != 0 || st.Hot != 0 || st.Cold != 1 {
				t.Errorf("post-rejection compaction broken: %+v", st)
			}
		})
	}
}

func TestRetireDropsEmptyPages(t *testing.T) {
	d := New(Config{})
	// Fill two pages.
	var set []Move
	for v := graph.VertexID(0); v < 2*pageSize; v++ {
		set = append(set, Move{V: v, To: int(v) % 3})
	}
	mustCommit(t, d, Batch{Set: set})
	if got := d.Stats().Pages; got != 2 {
		t.Fatalf("pages = %d, want 2", got)
	}
	// Retire every entry of page 0: the page must be dropped.
	var retire []graph.VertexID
	for v := graph.VertexID(0); v < pageSize; v++ {
		retire = append(retire, v)
	}
	mustCommit(t, d, Batch{Retire: retire})
	st := d.Stats()
	if st.Pages != 1 {
		t.Errorf("pages = %d after emptying page 0, want 1 (compaction)", st.Pages)
	}
	if st.Hot != pageSize || st.Cold != pageSize {
		t.Errorf("hot=%d cold=%d, want %d/%d", st.Hot, st.Cold, pageSize, pageSize)
	}
	// Every spilled entry still answers.
	s := d.Current()
	for v := graph.VertexID(0); v < 2*pageSize; v++ {
		if sh, ok := s.Lookup(v); !ok || sh != int(v)%3 {
			t.Fatalf("vertex %d: %d,%v", v, sh, ok)
		}
	}
}

// TestRehydrateDropsEmptyColdPages is TestRetireDropsEmptyPages from the
// other side: the cold tier's footprint follows what is retired, so a cold
// page whose every entry re-hydrates (through Set or Promote) is dropped.
func TestRehydrateDropsEmptyColdPages(t *testing.T) {
	d := New(Config{})
	var set []Move
	var all []graph.VertexID
	for v := graph.VertexID(0); v < 2*pageSize; v++ {
		set = append(set, Move{V: v, To: int(v) % 3})
		all = append(all, v)
	}
	mustCommit(t, d, Batch{Set: set})
	mustCommit(t, d, Batch{Retire: all})
	if s := d.Current(); s.cold.allocated() != 2 || s.hot.allocated() != 0 || s.ColdLen() != 2*pageSize {
		t.Fatalf("after retiring all: %d cold pages, %d hot pages, cold=%d, want 2/0/%d",
			s.cold.allocated(), s.hot.allocated(), s.ColdLen(), 2*pageSize)
	}
	// Re-hydrate page 0: half through Set, half through Promote.
	mustCommit(t, d, Batch{Set: set[:pageSize/2], Promote: all[pageSize/2 : pageSize]})
	s := d.Current()
	if s.cold.allocated() != 1 || s.cold[0] != nil {
		t.Errorf("%d cold pages after emptying cold page 0 (page 0 dropped: %v), want 1 (compaction)",
			s.cold.allocated(), s.cold[0] == nil)
	}
	if s.HotLen() != pageSize || s.ColdLen() != pageSize {
		t.Errorf("hot=%d cold=%d, want %d/%d", s.HotLen(), s.ColdLen(), pageSize, pageSize)
	}
	for v := graph.VertexID(0); v < 2*pageSize; v++ {
		sh, cold, ok := s.LookupTier(v)
		if !ok || sh != int(v)%3 || cold != (v >= pageSize) {
			t.Fatalf("vertex %d: (%d,cold=%v,%v)", v, sh, cold, ok)
		}
	}
	// The dropped page comes back when its range retires again.
	mustCommit(t, d, Batch{Retire: all[:1]})
	if s := d.Current(); s.cold.allocated() != 2 || s.cold.get(0) != 0 || s.cold.get(1) != noShard {
		t.Errorf("re-retiring into a dropped cold page: %d pages, slot0=%d slot1=%d",
			s.cold.allocated(), s.cold.get(0), s.cold.get(1))
	}
}

// TestOutOfRangeIDsRefused: a Set or SetCold naming an ID at or above
// graph.MaxVertexID is refused whichever lane names it, and allocates no
// page; Retire and Promote of such an ID find nothing and count nothing;
// and a lookup of one answers "unmapped".
func TestOutOfRangeIDsRefused(t *testing.T) {
	d := New(Config{})
	a, b := graph.MaxVertexID, graph.MaxVertexID+(7<<pageBits)+3
	mustCommit(t, d, Batch{Shards: 4, Set: []Move{{V: 5, To: 0}}})
	for _, bad := range []Batch{
		{Set: []Move{{V: a, To: 1}}},
		{Set: []Move{{V: b, To: 3}}},
		{SetCold: []Move{{V: b, To: 2}}},
		{SetCold: []Move{{V: 6, To: 2}, {V: a, To: 3}}},
	} {
		if _, err := d.CommitBatch(bad, false); err == nil {
			t.Errorf("batch %+v accepted", bad)
		}
	}
	mustCommit(t, d, Batch{Retire: []graph.VertexID{a, b}, Promote: []graph.VertexID{a, b}})
	s := d.Current()
	for _, v := range []graph.VertexID{a, b, 6} {
		if sh, cold, ok := s.LookupTier(v); ok {
			t.Errorf("LookupTier(%d) = (%d,cold=%v,true), want unmapped", v, sh, cold)
		}
	}
	if s.Epoch() != 2 || s.Len() != 1 || s.HotLen() != 1 || s.hot.allocated() != 1 || s.cold.allocated() != 0 {
		t.Errorf("epoch=%d len=%d hot=%d, %d hot pages, %d cold pages, want 2/1/1/1/0",
			s.Epoch(), s.Len(), s.HotLen(), s.hot.allocated(), s.cold.allocated())
	}
	if st := d.Stats(); st.Retired != 0 || st.Promoted != 0 {
		t.Errorf("out-of-range retire/promote counted: %+v", st)
	}
}

// TestOutOfRangeSetAllocatesNothing: on a fresh directory, a refused Set
// of an out-of-range ID leaves the epoch, the lookup and both tiers as
// they were — no page of either tier is allocated for it.
func TestOutOfRangeSetAllocatesNothing(t *testing.T) {
	d := New(Config{})
	huge := graph.MaxVertexID + 12345
	if _, err := d.CommitBatch(Batch{Set: []Move{{V: huge, To: 3}}}, false); err == nil {
		t.Fatal("Set of an out-of-range ID accepted")
	}
	s := d.Current()
	if sh, ok := s.Lookup(huge); ok {
		t.Errorf("huge ID mapped to %d", sh)
	}
	if s.Epoch() != 0 || s.Len() != 0 || s.hot.allocated() != 0 || s.cold.allocated() != 0 {
		t.Errorf("epoch=%d len=%d, %d hot pages, %d cold pages, want all 0",
			s.Epoch(), s.Len(), s.hot.allocated(), s.cold.allocated())
	}
	if st := d.Stats(); st.Pages != 0 {
		t.Errorf("huge ID allocated %d pages", st.Pages)
	}
}

func TestJournalBounded(t *testing.T) {
	d := New(Config{JournalDepth: 4})
	for i := 0; i < 10; i++ {
		mustCommit(t, d, Batch{Set: []Move{{V: graph.VertexID(i), To: 0}}})
	}
	// Epochs 7..10 are retained, 6 and older evicted.
	for e := uint64(7); e <= 10; e++ {
		s, ok := d.AtEpoch(e)
		if !ok || s.Epoch() != e {
			t.Errorf("epoch %d not retained", e)
		}
		// The pinned view must contain exactly the first e placements.
		if s.Len() != int(e) {
			t.Errorf("epoch %d view has %d entries", e, s.Len())
		}
	}
	if _, ok := d.AtEpoch(6); ok {
		t.Error("epoch 6 should have been evicted from a depth-4 journal")
	}
}

func TestEachVisitsEveryEntry(t *testing.T) {
	d := New(Config{})
	mustCommit(t, d, Batch{Set: []Move{{V: 1, To: 0}, {V: 2, To: 1}, {V: 5000, To: 2}}})
	mustCommit(t, d, Batch{Retire: []graph.VertexID{2}})
	got := map[graph.VertexID]int{}
	d.Current().Each(func(v graph.VertexID, shard int) bool {
		got[v] = shard
		return true
	})
	want := map[graph.VertexID]int{1: 0, 2: 1, 5000: 2}
	if len(got) != len(want) {
		t.Fatalf("Each visited %v, want %v", got, want)
	}
	for v, sh := range want {
		if got[v] != sh {
			t.Errorf("Each saw %d->%d, want %d", v, got[v], sh)
		}
	}
}

func TestPublisherBatchingSemantics(t *testing.T) {
	d := New(Config{})
	p := NewPublisher(d)

	// Places buffer until Flush; a flush with nothing buffered burns no epoch.
	p.OnPlace(1, 0)
	p.OnPlace(2, 1)
	if d.Epoch() != 0 {
		t.Fatal("places committed before Flush")
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if d.Epoch() != 1 || d.Current().Len() != 2 {
		t.Fatalf("epoch=%d len=%d after flush", d.Epoch(), d.Current().Len())
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if d.Epoch() != 1 {
		t.Error("empty flush burned an epoch")
	}

	// A wave commits as one flip when OnRepartition fires, retires ride along.
	p.OnRetire(2, 1)
	p.OnMove(1, 0, 1)
	p.OnMove(2, 1, 0)
	if err := p.OnRepartition(2); err != nil {
		t.Fatal(err)
	}
	if d.Epoch() != 2 {
		t.Fatalf("wave+retire flipped to epoch %d, want 2", d.Epoch())
	}
	s := d.Current()
	if sh, _ := s.Lookup(1); sh != 1 {
		t.Errorf("vertex 1 on %d", sh)
	}
	// Vertex 2 was retired then moved in the same batch: Set wins (the
	// move targets the current mapping wherever it lives).
	if sh, ok := s.Lookup(2); !ok || sh != 0 {
		t.Errorf("vertex 2: %d,%v", sh, ok)
	}

	// A move-count mismatch must refuse to commit.
	p.OnMove(1, 1, 0)
	if err := p.OnRepartition(2); err == nil {
		t.Error("torn wave accepted")
	}
}

// keepingCommitter retains every batch uncopied, as a stalled wave or a
// recording committer does, and extends its lanes the moment it has them,
// as a committer that owns a batch may.
type keepingCommitter struct {
	kept, copies []Batch
}

func (k *keepingCommitter) CommitBatch(b Batch, _ bool) (uint64, error) {
	k.kept = append(k.kept, b)
	k.copies = append(k.copies, Batch{
		Set: slices.Clone(b.Set), SetCold: slices.Clone(b.SetCold),
		Retire: slices.Clone(b.Retire), Promote: slices.Clone(b.Promote), Shards: b.Shards,
	})
	junk := Move{V: graph.MaxVertexID, To: -1}
	_ = append(b.Set, junk)
	_ = append(b.SetCold, junk)
	return uint64(len(k.kept)), nil
}

// TestCarvedBatchesNeverAlias: the lanes a Publisher carves for its batches
// share allocations, and a committer may keep and extend every batch it is
// handed. Over one-placement flushes, flushes of several placements, and
// waves above and below the carving limit in both lanes, every kept batch
// must still equal the copy taken when it arrived.
func TestCarvedBatchesNeverAlias(t *testing.T) {
	k := &keepingCommitter{}
	p := NewPublisher(k)
	p.SetLive(func(v graph.VertexID) bool { return v%3 != 0 })
	rng := rand.New(rand.NewSource(1))
	next := graph.VertexID(0)
	place := func(n int) {
		for range n {
			p.OnPlace(next, rng.Intn(4))
			next++
		}
	}
	for i := 0; i < 10_000; i++ {
		var err error
		switch rng.Intn(4) {
		case 0:
			place(1)
			err = p.Flush()
		case 1:
			place(2 + rng.Intn(30))
			err = p.Flush()
		default:
			place(rng.Intn(3))
			n := 1 + rng.Intn(2*maxCarve+40)
			for range n {
				p.OnMove(graph.VertexID(rng.Int63n(int64(next+1))), 0, rng.Intn(4))
			}
			err = p.OnRepartition(n)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, b := range k.kept {
		c := k.copies[i]
		if !slices.Equal(b.Set, c.Set) || !slices.Equal(b.SetCold, c.SetCold) ||
			!slices.Equal(b.Retire, c.Retire) || !slices.Equal(b.Promote, c.Promote) {
			t.Fatalf("batch %d changed after it was committed:\n got %+v\nwant %+v", i, b, c)
		}
	}
}
