package dirserve

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"ethpart/internal/directory"
	"ethpart/internal/graph"
)

// listen opens a loopback listener or fails the test.
func listen(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// sameView asserts b serves exactly a's mapping (tier-insensitive).
func sameView(t *testing.T, name string, a, b *directory.Snapshot) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Errorf("%s: %d entries, want %d", name, b.Len(), a.Len())
	}
	a.Each(func(v graph.VertexID, shard int) bool {
		if got, ok := b.Lookup(v); !ok || got != shard {
			t.Errorf("%s: vertex %d = (%d,%v), want (%d,true)", name, v, got, ok, shard)
			return false
		}
		return true
	})
}

func TestServerBatchLookup(t *testing.T) {
	dir := directory.New(directory.Config{})
	if _, err := dir.CommitBatch(directory.Batch{
		Set:    []directory.Move{{V: 1, To: 0}, {V: 2, To: 1}, {V: 3, To: 2}},
		Shards: 4,
	}, false); err != nil {
		t.Fatal(err)
	}
	srv := Serve(listen(t), ServerConfig{Dir: dir})
	defer srv.Close()

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ids := []graph.VertexID{1, 2, 3, 99}
	out := make([]int32, len(ids))
	epoch, stale, err := c.LookupBatch(ids, out)
	if err != nil {
		t.Fatal(err)
	}
	if stale {
		t.Error("fresh resolve reported stale")
	}
	if epoch != 1 {
		t.Errorf("epoch = %d, want 1", epoch)
	}
	want := []int32{0, 1, 2, NoShard}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("id %d → shard %d, want %d", ids[i], out[i], want[i])
		}
	}
	if srv.Lookups() != 4 || srv.Batches() != 1 {
		t.Errorf("server counted %d lookups / %d batches, want 4 / 1", srv.Lookups(), srv.Batches())
	}

	// Second batch exact-pins the same epoch even after the writer moves on.
	if _, err := dir.CommitBatch(directory.Batch{Set: []directory.Move{{V: 1, To: 3}}}, false); err != nil {
		t.Fatal(err)
	}
	epoch2, stale2, err := c.LookupBatch(ids[:1], out[:1])
	if err != nil {
		t.Fatal(err)
	}
	if epoch2 != epoch || stale2 {
		t.Errorf("pinned batch got epoch %d (stale=%v), want pinned %d", epoch2, stale2, epoch)
	}
	if out[0] != 0 {
		t.Errorf("pinned view must still serve the old mapping, got %d", out[0])
	}
}

func TestClientRepinAfterEviction(t *testing.T) {
	dir := directory.New(directory.Config{JournalDepth: 4})
	if _, err := dir.CommitBatch(directory.Batch{Set: []directory.Move{{V: 1, To: 0}}, Shards: 2}, false); err != nil {
		t.Fatal(err)
	}
	srv := Serve(listen(t), ServerConfig{Dir: dir})
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	out := make([]int32, 1)
	if _, _, err := c.LookupBatch([]graph.VertexID{1}, out); err != nil {
		t.Fatal(err)
	}
	pinned := c.Epoch()

	// Push the pinned epoch out of the 4-deep journal.
	for i := 0; i < 8; i++ {
		if _, err := dir.CommitBatch(directory.Batch{Set: []directory.Move{{V: 1, To: i % 2}}}, false); err != nil {
			t.Fatal(err)
		}
	}
	epoch, stale, err := c.LookupBatch([]graph.VertexID{1}, out)
	if err != nil {
		t.Fatal(err)
	}
	if !stale {
		t.Error("re-pin after eviction must propagate the staleness flag")
	}
	if epoch <= pinned {
		t.Errorf("re-pin landed on epoch %d, want newer than %d", epoch, pinned)
	}
	if c.Evictions != 1 || c.StaleBatches != 1 || c.Repins == 0 {
		t.Errorf("client counters: evictions=%d stale=%d repins=%d, want 1/1/>0",
			c.Evictions, c.StaleBatches, c.Repins)
	}
	if c.Epoch() != epoch {
		t.Errorf("client pin = %d, want %d", c.Epoch(), epoch)
	}
}

func TestFanoutReplication(t *testing.T) {
	primary := directory.New(directory.Config{})

	// Two replicas behind real sockets.
	type rep struct {
		dir *directory.Directory
		rp  *Replica
		srv *Server
	}
	var reps []rep
	var addrs []string
	for i := 0; i < 2; i++ {
		d := directory.New(directory.Config{})
		rp := NewReplica(d)
		srv := Serve(listen(t), ServerConfig{Dir: d, Replica: rp})
		defer srv.Close()
		reps = append(reps, rep{dir: d, rp: rp, srv: srv})
		addrs = append(addrs, srv.Addr())
	}
	f, err := NewFanout(primary, nil, addrs...)
	if err != nil {
		t.Fatal(err)
	}

	// A mixed commit stream: placements, a wave, retirements, a resize
	// batch carrying its shard-count change, and a promotion.
	batches := []struct {
		b    directory.Batch
		wave bool
	}{
		{directory.Batch{Set: []directory.Move{{V: 1, To: 0}, {V: 2, To: 1}, {V: 3, To: 0}}, Shards: 2}, false},
		{directory.Batch{Set: []directory.Move{{V: 1, To: 1}, {V: 4, To: 0}}}, true},
		{directory.Batch{Retire: []graph.VertexID{2}}, false},
		{directory.Batch{Set: []directory.Move{{V: 5, To: 3}}, Shards: 4}, true},
		{directory.Batch{Promote: []graph.VertexID{2}}, false},
	}
	for _, tb := range batches {
		if _, err := f.CommitBatch(tb.b, tb.wave); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for i, r := range reps {
		if got := r.rp.Applied(); got != uint64(len(batches)) {
			t.Errorf("replica %d applied %d, want %d", i, got, len(batches))
		}
		sameView(t, "replica", primary.Current(), r.dir.Current())
		sameView(t, "primary", r.dir.Current(), primary.Current())
		if got := r.dir.Current().Shards(); got != 4 {
			t.Errorf("replica %d shard count %d, want 4 (resize must replicate)", i, got)
		}
		if got := r.dir.Current().Epoch(); got != primary.Current().Epoch() {
			t.Errorf("replica %d epoch %d, want %d", i, got, primary.Current().Epoch())
		}
		st := r.dir.Stats()
		if st.WaveFlips != 2 {
			t.Errorf("replica %d counted %d wave flips, want 2", i, st.WaveFlips)
		}
	}
	for _, fs := range f.FeedStats() {
		if fs.Err != nil {
			t.Errorf("feed %s failed: %v", fs.Addr, fs.Err)
		}
		if fs.Acked != uint64(len(batches)) {
			t.Errorf("feed %s acked %d, want %d", fs.Addr, fs.Acked, len(batches))
		}
	}
}

func TestReplicaLookupWithEpochFloor(t *testing.T) {
	// A client pinned to the primary's epoch must skip a replica that has
	// not applied it yet (statusBehind) and never read backwards.
	primary := directory.New(directory.Config{})
	rdir := directory.New(directory.Config{})
	rp := NewReplica(rdir)
	srv := Serve(listen(t), ServerConfig{Dir: rdir, Replica: rp})
	defer srv.Close()

	if _, err := primary.CommitBatch(directory.Batch{Set: []directory.Move{{V: 7, To: 1}}, Shards: 2}, false); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Simulate a pin taken from the primary: ask the lagging replica for
	// epoch ≥ 1 while it is still empty.
	out := make([]int32, 1)
	c.pin = primary.Epoch()
	if _, _, err := c.LookupBatch([]graph.VertexID{7}, out); err == nil {
		t.Fatal("lookup against a wholly-behind fleet must fail, not regress")
	}
	if c.Behind == 0 {
		t.Error("behind counter must record the lagging replica")
	}

	// Catch the replica up; the same pinned lookup now succeeds.
	if _, err := rp.Apply(1, directory.Batch{Set: []directory.Move{{V: 7, To: 1}}, Shards: 2}, false); err != nil {
		t.Fatal(err)
	}
	epoch, _, err := c.LookupBatch([]graph.VertexID{7}, out)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 || out[0] != 1 {
		t.Errorf("caught-up replica served (epoch %d, shard %d), want (1, 1)", epoch, out[0])
	}
}

func TestColdPromotionOverWire(t *testing.T) {
	// Lookup of a retired (cold) entry on a replica pushes a hint; the
	// hint rides the next apply ack into the primary's ring; the publisher
	// drains it into a Promote lane; the promotion fans back out.
	primaryDir := directory.New(directory.Config{})
	ring := directory.NewHintRing(64)

	rdir := directory.New(directory.Config{})
	rp := NewReplica(rdir)
	rring := directory.NewHintRing(64)
	srv := Serve(listen(t), ServerConfig{Dir: rdir, Replica: rp, Hints: rring})
	defer srv.Close()

	f, err := NewFanout(primaryDir, ring, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	pub := directory.NewPublisher(f)
	pub.SetShards(2)
	pub.AttachHints(ring)

	// Place then retire vertex 9.
	pub.OnPlace(9, 1)
	if err := pub.Flush(); err != nil {
		t.Fatal(err)
	}
	pub.OnRetire(9, 1)
	if err := pub.Flush(); err != nil {
		t.Fatal(err)
	}
	// Let the replica catch up before reading from it.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if rdir.Current().ColdLen() != 1 {
		t.Fatalf("replica cold len = %d, want 1", rdir.Current().ColdLen())
	}

	// A cold hit on the replica leaves a hint in its ring.
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out := make([]int32, 1)
	if _, _, err := c.LookupBatch([]graph.VertexID{9}, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 1 {
		t.Fatalf("cold lookup = %d, want 1", out[0])
	}
	if srv.ColdHits() != 1 {
		t.Fatalf("server cold hits = %d, want 1", srv.ColdHits())
	}

	// Reconnect the feed; the next commit's ack returns the hint, and the
	// commit after that carries the promotion.
	f2, err := NewFanout(primaryDir, ring, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	pub2 := directory.NewPublisher(f2)
	pub2.SetShards(2)
	pub2.AttachHints(ring)
	pub2.OnPlace(10, 0)
	if err := pub2.Flush(); err != nil { // ack brings the hint home
		t.Fatal(err)
	}
	if err := f2.Close(); err != nil {
		t.Fatal(err)
	}
	if ring.Empty() {
		t.Fatal("replica hint never reached the primary ring")
	}
	f3, err := NewFanout(primaryDir, ring, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	pub3 := directory.NewPublisher(f3)
	pub3.SetShards(2)
	pub3.AttachHints(ring)
	if err := pub3.Flush(); err != nil { // hint-only flush: the promotion commit
		t.Fatal(err)
	}
	if err := f3.Close(); err != nil {
		t.Fatal(err)
	}

	if primaryDir.Stats().Promoted != 1 {
		t.Errorf("primary promoted %d, want 1", primaryDir.Stats().Promoted)
	}
	if rdir.Stats().Promoted != 1 {
		t.Errorf("replica promoted %d, want 1 (promotion must fan out)", rdir.Stats().Promoted)
	}
	if got, ok := primaryDir.Current().Lookup(9); !ok || got != 1 {
		t.Errorf("promoted mapping changed: (%d,%v), want (1,true)", got, ok)
	}
	if primaryDir.Current().ColdLen() != 0 {
		t.Errorf("primary cold len = %d, want 0 after promotion", primaryDir.Current().ColdLen())
	}
	sameView(t, "replica", primaryDir.Current(), rdir.Current())
}

// TestReplicaRefusesOutOfRangeIDs: an apply frame whose batch maps an ID at
// or above graph.MaxVertexID gets an error ack naming the bound, applies
// nothing, and leaves the replica able to take the epoch again.
func TestReplicaRefusesOutOfRangeIDs(t *testing.T) {
	d := directory.New(directory.Config{})
	srv := Serve(listen(t), ServerConfig{Dir: d, Replica: NewReplica(d)})
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	bw, br := newWriter(conn), newReader(conn)
	apply := func(b directory.Batch) (status byte, applied uint64, msg string) {
		t.Helper()
		req := append(appendU64([]byte{msgApply}, 1), 0) // epoch 1, not a wave
		if err := writeFrame(bw, appendBatch(req, b)); err != nil {
			t.Fatal(err)
		}
		frame, err := readFrame(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		c := cursor{p: frame}
		if c.u8() != msgApplyResp {
			t.Fatalf("ack %x is not an apply response", frame)
		}
		status, applied = c.u8(), c.u64()
		n := c.count(1)
		if c.err != nil {
			t.Fatal(c.err)
		}
		return status, applied, string(c.p[:n])
	}

	status, applied, msg := apply(directory.Batch{Set: []directory.Move{{V: 1, To: 0}, {V: graph.MaxVertexID, To: 1}}})
	if status == 0 || applied != 0 || !strings.Contains(msg, "out of range") {
		t.Fatalf("out-of-range apply acked (status %d, applied %d, %q); want an error ack at watermark 0", status, applied, msg)
	}
	if s := d.Current(); s.Epoch() != 0 || s.Len() != 0 {
		t.Fatalf("refused frame applied: epoch %d, %d entries", s.Epoch(), s.Len())
	}
	if status, applied, msg := apply(directory.Batch{Set: []directory.Move{{V: 1, To: 0}}}); status != 0 || applied != 1 {
		t.Fatalf("valid redelivery of epoch 1: status %d, applied %d, %q", status, applied, msg)
	}
}

// TestUnknownMessagePoisonsConnection: a frame whose type the server does
// not speak — here 5, the retired stats probe — gets no reply; the server
// drops the connection instead of guessing at the payload.
func TestUnknownMessagePoisonsConnection(t *testing.T) {
	srv := Serve(listen(t), ServerConfig{Dir: directory.New(directory.Config{})})
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	bw := newWriter(conn)
	if err := writeFrame(bw, []byte{5}); err != nil {
		t.Fatal(err)
	}
	if frame, err := readFrame(newReader(conn), nil); !errors.Is(err, io.EOF) {
		t.Fatalf("unknown message answered with frame %v, err %v; want the connection closed", frame, err)
	}
}

// TestDecodedBatchesNeverAlias: a connection decodes every apply frame's
// lanes from one slab, and a decoded batch may outlive many later frames —
// the replica parks out-of-order batches, a flaky committer stalls waves —
// and be extended by whoever holds it. Frame N's batch is kept while frames
// N+1…N+300 decode on the same slab, each extended right after decoding,
// and every kept batch must still equal the batch that was encoded.
func TestDecodedBatchesNeverAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lane := func(n int) []directory.Move {
		ms := make([]directory.Move, n)
		for i := range ms {
			ms[i] = directory.Move{V: graph.VertexID(rng.Intn(1 << 20)), To: rng.Intn(8)}
		}
		return ms
	}
	var (
		slab       directory.MoveSlab
		sent, kept []directory.Batch
	)
	junk := directory.Move{V: graph.MaxVertexID, To: -1}
	for range 301 {
		b := directory.Batch{Shards: 8, Set: lane(rng.Intn(90)), SetCold: lane(rng.Intn(40))}
		if rng.Intn(4) == 0 {
			b.Retire = []graph.VertexID{graph.VertexID(rng.Intn(1 << 20))}
		}
		c := cursor{p: appendBatch(nil, b)}
		got := c.decodeBatch(&slab)
		if c.err != nil {
			t.Fatal(c.err)
		}
		_ = append(got.Set, junk)
		_ = append(got.SetCold, junk)
		sent, kept = append(sent, b), append(kept, got)
	}
	for i, got := range kept {
		want := sent[i]
		if got.Shards != want.Shards || !slices.Equal(got.Set, want.Set) ||
			!slices.Equal(got.SetCold, want.SetCold) || !slices.Equal(got.Retire, want.Retire) {
			t.Fatalf("batch of frame %d changed by later decodes:\n got %+v\nwant %+v", i, got, want)
		}
	}
}
