package directory

import (
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ethpart/internal/graph"
)

// TestBatchShardsCarriage: the shard count rides the batch, flips with the
// epoch, and inherits when unset; targets are validated against the
// effective count.
func TestBatchShardsCarriage(t *testing.T) {
	d := New(Config{})
	if got := d.Current().Shards(); got != 0 {
		t.Fatalf("fresh directory declares %d shards, want 0 (undeclared)", got)
	}

	e1, err := d.CommitBatch(Batch{Shards: 4, Set: []Move{{V: 1, To: 3}}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Current().Shards(); got != 4 {
		t.Fatalf("Shards after declaring commit = %d, want 4", got)
	}

	// Shards: 0 inherits.
	if _, err := d.CommitBatch(Batch{Set: []Move{{V: 2, To: 0}}}, false); err != nil {
		t.Fatal(err)
	}
	if got := d.Current().Shards(); got != 4 {
		t.Errorf("inheriting commit changed Shards to %d", got)
	}

	// A declared count validates every target in the same batch.
	if _, err := d.CommitBatch(Batch{Set: []Move{{V: 3, To: 4}}}, false); err == nil {
		t.Error("Set target 4 accepted with 4 shards declared")
	}
	if _, err := d.CommitBatch(Batch{SetCold: []Move{{V: 3, To: 7}}}, false); err == nil {
		t.Error("SetCold target 7 accepted with 4 shards declared")
	}
	if _, err := d.CommitBatch(Batch{Shards: -2}, false); err == nil {
		t.Error("negative Shards accepted")
	}

	// The old epoch still answers with the old count: no k/placement tear
	// for a pinned reader.
	old, err := d.PinEpoch(e1)
	if err != nil {
		t.Fatal(err)
	}
	if old.Shards() != 4 {
		t.Errorf("pinned epoch %d Shards = %d, want 4", e1, old.Shards())
	}
}

// TestShrinkOrphanRejected: a count-shrinking commit must carry remaps for
// every entry above the new range or be rejected before any mutation.
func TestShrinkOrphanRejected(t *testing.T) {
	d := New(Config{})
	if _, err := d.CommitBatch(Batch{Shards: 4, Set: []Move{{V: 1, To: 0}, {V: 2, To: 3}}}, false); err != nil {
		t.Fatal(err)
	}
	epoch := d.Epoch()

	_, err := d.CommitBatch(Batch{Shards: 2}, false)
	if err == nil {
		t.Fatal("shrink accepted with vertex 2 on shard 3")
	}
	if !strings.Contains(err.Error(), "shard 3") {
		t.Errorf("shrink error does not name the orphan shard: %v", err)
	}
	if d.Epoch() != epoch {
		t.Errorf("failed shrink burned an epoch: %d -> %d", epoch, d.Epoch())
	}
	if s, ok := d.Current().Lookup(2); !ok || s != 3 {
		t.Errorf("failed shrink mutated entry: %d, %v", s, ok)
	}
	if d.Current().Shards() != 4 {
		t.Errorf("failed shrink changed count to %d", d.Current().Shards())
	}

	// The same shrink with the remap in the same batch is one clean flip.
	if _, err := d.CommitBatch(Batch{Shards: 2, Set: []Move{{V: 2, To: 1}}}, false); err != nil {
		t.Fatal(err)
	}
	if d.Epoch() != epoch+1 {
		t.Errorf("resize wave took %d flips, want 1", d.Epoch()-epoch)
	}
	if d.Current().Shards() != 2 {
		t.Errorf("Shards after shrink = %d", d.Current().Shards())
	}
}

// TestSetColdTierPreserving: SetCold updates an entry without changing its
// tier — retired entries stay cold (a merge remap of dead history must not
// re-hydrate the hot tier), hot entries stay hot, unknown entries land cold.
func TestSetColdTierPreserving(t *testing.T) {
	d := New(Config{})
	if _, err := d.CommitBatch(Batch{Shards: 4, Set: []Move{{V: 10, To: 2}, {V: 11, To: 2}}}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CommitBatch(Batch{Retire: []graph.VertexID{10}}, false); err != nil {
		t.Fatal(err)
	}
	base := d.Current()
	if base.HotLen() != 1 || base.ColdLen() != 1 {
		t.Fatalf("setup: hot=%d cold=%d", base.HotLen(), base.ColdLen())
	}

	// Remap the retired entry and the hot entry via SetCold, plus one
	// never-seen vertex.
	if _, err := d.CommitBatch(Batch{SetCold: []Move{{V: 10, To: 0}, {V: 11, To: 0}, {V: 12, To: 1}}}, false); err != nil {
		t.Fatal(err)
	}
	s := d.Current()
	if got, ok := s.Lookup(10); !ok || got != 0 {
		t.Errorf("retired entry not remapped: %d, %v", got, ok)
	}
	if got, ok := s.Lookup(11); !ok || got != 0 {
		t.Errorf("hot entry not remapped: %d, %v", got, ok)
	}
	if got, ok := s.Lookup(12); !ok || got != 1 {
		t.Errorf("unknown entry not placed: %d, %v", got, ok)
	}
	// 11 stayed hot; 10 stayed cold; 12 joined cold.
	if s.HotLen() != 1 || s.ColdLen() != 2 {
		t.Errorf("tiers after SetCold: hot=%d cold=%d, want 1/2", s.HotLen(), s.ColdLen())
	}
	// An unknown in-range ID joins the cold *page* of its index; an
	// out-of-range one is refused and the view stays as it was.
	if _, cold, _ := s.LookupTier(12); !cold || s.cold.get(12) != 1 {
		t.Errorf("unknown in-range ID: cold=%v, cold page slot=%d; want true/1", cold, s.cold.get(12))
	}
	if _, err := d.CommitBatch(Batch{SetCold: []Move{{V: graph.MaxVertexID, To: 1}}}, false); err == nil || d.Current() != s {
		t.Errorf("out-of-range SetCold: err=%v, view replaced=%v; want refused, unchanged", err, d.Current() != s)
	}
}

// TestColdPromotionAcrossResize is the satellite case: an entry that
// retired when the directory had k shards is re-placed (promoted hot) onto
// a shard index that only exists after a split, in the same epoch that
// grows the count.
func TestColdPromotionAcrossResize(t *testing.T) {
	d := New(Config{})
	if _, err := d.CommitBatch(Batch{Shards: 2, Set: []Move{{V: 7, To: 1}}}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CommitBatch(Batch{Retire: []graph.VertexID{7}}, false); err != nil {
		t.Fatal(err)
	}
	if d.Current().ColdLen() != 1 {
		t.Fatal("setup: entry not cold")
	}

	// Shard 5 does not exist before this commit; the promotion and the
	// growth land in one flip.
	epoch := d.Epoch()
	if _, err := d.CommitBatch(Batch{Shards: 6, Set: []Move{{V: 7, To: 5}}}, false); err != nil {
		t.Fatal(err)
	}
	if d.Epoch() != epoch+1 {
		t.Errorf("grow+promote took %d flips", d.Epoch()-epoch)
	}
	s := d.Current()
	if got, ok := s.Lookup(7); !ok || got != 5 {
		t.Errorf("promoted entry = %d, %v, want shard 5", got, ok)
	}
	if s.HotLen() != 1 || s.ColdLen() != 0 {
		t.Errorf("promotion tiers: hot=%d cold=%d", s.HotLen(), s.ColdLen())
	}
	st := d.Stats()
	if st.Rehydrated != 1 {
		t.Errorf("Rehydrated = %d, want 1", st.Rehydrated)
	}
	if st.Shards != 6 {
		t.Errorf("Stats.Shards = %d, want 6", st.Shards)
	}
}

// TestPinEpochResolveAcrossKFlip: a reader pinned before a k-changing flip
// keeps the old count with the old placements; once the journal evicts its
// epoch, Resolve degrades it to the current view (new count, new
// placements) with stale=true — never a mix.
func TestPinEpochResolveAcrossKFlip(t *testing.T) {
	d := New(Config{JournalDepth: 2})
	if _, err := d.CommitBatch(Batch{Shards: 2, Set: []Move{{V: 1, To: 1}, {V: 2, To: 0}}}, false); err != nil {
		t.Fatal(err)
	}
	before := d.Epoch()

	// The resize wave: count 2 -> 4 plus the remap, one flip.
	if _, err := d.CommitBatch(Batch{Shards: 4, Set: []Move{{V: 1, To: 3}}}, false); err != nil {
		t.Fatal(err)
	}

	old, err := d.PinEpoch(before)
	if err != nil {
		t.Fatal(err)
	}
	if old.Shards() != 2 {
		t.Errorf("pinned pre-flip Shards = %d, want 2", old.Shards())
	}
	if s, _ := old.Lookup(1); s != 1 {
		t.Errorf("pinned pre-flip placement = %d, want 1", s)
	}
	cur, stale := d.Resolve(before)
	if stale || cur.Shards() != 2 {
		t.Errorf("Resolve(retained) = shards %d, stale %v", cur.Shards(), stale)
	}

	// Flood the 2-deep journal so the pre-flip epoch evicts.
	for i := 0; i < 4; i++ {
		if _, err := d.CommitBatch(Batch{Set: []Move{{V: 2, To: i % 4}}}, false); err != nil {
			t.Fatal(err)
		}
	}
	got, stale := d.Resolve(before)
	if !stale {
		t.Fatal("Resolve(evicted) not marked stale")
	}
	if got.Shards() != 4 {
		t.Errorf("degraded view Shards = %d, want the current 4", got.Shards())
	}
	if s, _ := got.Lookup(1); s != 3 {
		t.Errorf("degraded view placement = %d, want the current 3", s)
	}
	if _, err := d.PinEpoch(before); err == nil {
		t.Error("PinEpoch(evicted) did not error")
	}
}

// TestRaceShardCountNeverTears is the resize tear detector (runs under
// CI's -race job): a writer alternates the directory between a wide and a
// narrow shard count, each transition one commit carrying the count and
// the full remap; readers assert that every placement a snapshot answers
// is below that same snapshot's shard count. A torn resize — new
// placements with the old count, or the reverse — fails immediately.
func TestRaceShardCountNeverTears(t *testing.T) {
	const n = 256
	d := New(Config{})
	wide := make([]Move, n)
	narrow := make([]Move, n)
	for i := range wide {
		wide[i] = Move{V: graph.VertexID(i), To: i % 8}
		narrow[i] = Move{V: graph.VertexID(i), To: i % 2}
	}
	if _, err := d.CommitBatch(Batch{Shards: 2, Set: narrow}, false); err != nil {
		t.Fatal(err)
	}

	var stop, torn atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				s := d.Current()
				k := s.Shards()
				for i := 0; i < 16; i++ {
					v := graph.VertexID(rng.Intn(n))
					if sh, ok := s.Lookup(v); ok && sh >= k {
						torn.Store(true)
						return
					}
				}
			}
		}(int64(r + 1))
	}

	for c := 0; c < 200 && !torn.Load(); c++ {
		b := Batch{Shards: 8, Set: wide}
		if c%2 == 1 {
			b = Batch{Shards: 2, Set: narrow}
		}
		if _, err := d.CommitBatch(b, false); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if torn.Load() {
		t.Fatal("a reader observed a placement outside its snapshot's shard count")
	}
}
