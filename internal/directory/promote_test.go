package directory

import (
	"testing"

	"ethpart/internal/graph"
)

func TestPromoteRehydratesColdEntry(t *testing.T) {
	d := New(Config{})
	if _, err := d.CommitBatch(Batch{Set: []Move{{V: 5, To: 2}}, Shards: 4}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CommitBatch(Batch{Retire: []graph.VertexID{5}}, false); err != nil {
		t.Fatal(err)
	}
	s := d.Current()
	if sh, cold, ok := s.LookupTier(5); !ok || !cold || sh != 2 {
		t.Fatalf("after retire: (%d,cold=%v,ok=%v), want (2,true,true)", sh, cold, ok)
	}

	if _, err := d.CommitBatch(Batch{Promote: []graph.VertexID{5}}, false); err != nil {
		t.Fatal(err)
	}
	s = d.Current()
	sh, cold, ok := s.LookupTier(5)
	if !ok || cold || sh != 2 {
		t.Fatalf("after promote: (%d,cold=%v,ok=%v), want (2,false,true)", sh, cold, ok)
	}
	if s.ColdLen() != 0 || s.HotLen() != 1 {
		t.Errorf("tiers: hot=%d cold=%d, want 1/0", s.HotLen(), s.ColdLen())
	}
	if got := d.Stats().Promoted; got != 1 {
		t.Errorf("Stats.Promoted = %d, want 1", got)
	}
}

func TestPromoteNeverChangesLookupAnswer(t *testing.T) {
	d := New(Config{})
	if _, err := d.CommitBatch(Batch{Set: []Move{{V: 1, To: 0}, {V: 2, To: 3}}, Shards: 4}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CommitBatch(Batch{Retire: []graph.VertexID{2}}, false); err != nil {
		t.Fatal(err)
	}
	before := map[graph.VertexID]int{}
	d.Current().Each(func(v graph.VertexID, sh int) bool { before[v] = sh; return true })

	// Promote a cold entry, a hot entry, an unknown vertex and an
	// out-of-range ID: only the cold one changes tier, none changes shard.
	if _, err := d.CommitBatch(Batch{Promote: []graph.VertexID{2, 1, 77, 1 << 40}}, false); err != nil {
		t.Fatal(err)
	}
	after := d.Current()
	if after.Len() != len(before) {
		t.Fatalf("entry count changed: %d, want %d", after.Len(), len(before))
	}
	for v, sh := range before {
		if got, ok := after.Lookup(v); !ok || got != sh {
			t.Errorf("vertex %d = (%d,%v), want (%d,true) — promote changed an answer", v, got, ok, sh)
		}
	}
	if got := d.Stats().Promoted; got != 1 {
		t.Errorf("Stats.Promoted = %d, want 1 (hot/unknown/out-of-range are no-ops)", got)
	}
}

func TestPromoteIsIdempotent(t *testing.T) {
	d := New(Config{})
	if _, err := d.CommitBatch(Batch{Set: []Move{{V: 9, To: 1}}, Shards: 2}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CommitBatch(Batch{Retire: []graph.VertexID{9}}, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := d.CommitBatch(Batch{Promote: []graph.VertexID{9}}, false); err != nil {
			t.Fatal(err)
		}
	}
	s := d.Current()
	if s.Len() != 1 || s.HotLen() != 1 {
		t.Errorf("len=%d hot=%d, want 1/1 after repeated promotes", s.Len(), s.HotLen())
	}
	if got := d.Stats().Promoted; got != 1 {
		t.Errorf("Stats.Promoted = %d, want 1 (re-promotes are no-ops)", got)
	}
}

// TestStatsWaveFlips is the regression test for the wave-marker satellite:
// CommitBatch's wave flag must be observable in Stats, splitting repartition
// flips from loose placement flushes.
func TestStatsWaveFlips(t *testing.T) {
	d := New(Config{})
	if _, err := d.CommitBatch(Batch{Set: []Move{{V: 1, To: 0}}, Shards: 2}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CommitBatch(Batch{Set: []Move{{V: 1, To: 1}}}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CommitBatch(Batch{Set: []Move{{V: 2, To: 0}}}, true); err != nil {
		t.Fatal(err)
	}
	// The Committer-free Commit path counts as a loose flush.
	if _, err := d.CommitBatch(Batch{Set: []Move{{V: 3, To: 1}}}, false); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Epoch != 4 {
		t.Errorf("Epoch = %d, want 4", st.Epoch)
	}
	if st.WaveFlips != 2 {
		t.Errorf("WaveFlips = %d, want 2", st.WaveFlips)
	}
	if loose := st.Epoch - st.WaveFlips; loose != 2 {
		t.Errorf("loose flushes = %d, want 2", loose)
	}
}

// TestPublisherDrainsHintsIntoPromote checks the publisher side of
// promotion-on-access: hints pushed into an attached ring surface as the
// next flush's Promote lane, deduplicated.
func TestPublisherDrainsHintsIntoPromote(t *testing.T) {
	d := New(Config{})
	p := NewPublisher(d)
	p.SetShards(2)
	ring := NewHintRing(64)
	p.AttachHints(ring)

	p.OnPlace(1, 0)
	p.OnPlace(2, 1)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	p.OnRetire(1, 0)
	p.OnRetire(2, 1)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if d.Current().ColdLen() != 2 {
		t.Fatalf("cold len = %d, want 2", d.Current().ColdLen())
	}

	// Duplicated hints from concurrent readers dedupe into one promotion.
	ring.Push(1)
	ring.Push(2)
	ring.Push(1)
	epochBefore := d.Epoch()
	if err := p.Flush(); err != nil { // hint-only flush must still commit
		t.Fatal(err)
	}
	if d.Epoch() != epochBefore+1 {
		t.Fatal("hint-only flush did not commit")
	}
	if !ring.Empty() {
		t.Error("flush left hints in the ring")
	}
	s := d.Current()
	if s.ColdLen() != 0 || s.HotLen() != 2 {
		t.Errorf("tiers after hint flush: hot=%d cold=%d, want 2/0", s.HotLen(), s.ColdLen())
	}
	if got := d.Stats().Promoted; got != 2 {
		t.Errorf("Stats.Promoted = %d, want 2 (hints deduped)", got)
	}

	// An empty publisher with an empty ring flushes to a no-op.
	epochBefore = d.Epoch()
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if d.Epoch() != epochBefore {
		t.Error("empty flush published a new epoch")
	}
}
