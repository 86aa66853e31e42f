//go:build !race

package dirserve

import (
	"math/rand"
	"runtime"
	"testing"

	"ethpart/internal/directory"
	"ethpart/internal/graph"
)

// TestAllocsReplicaApply: a replica decoding an in-order one-move apply
// frame and applying it makes a share of its connection's move slab plus
// what a one-move commit makes — shares of a snapshot, page-table, page-node
// and leaf chunk — and acks into a reused buffer: under half a heap object
// on average. The race detector instruments allocations, hence the build tag.
// Measured at 0.44 objects.
func TestAllocsReplicaApply(t *testing.T) {
	const (
		ids     = 50_000
		frames  = 4096
		ceiling = 0.5
	)
	d := directory.New(directory.Config{})
	r := NewReplica(d)
	set := make([]directory.Move, ids)
	for i := range set {
		set[i] = directory.Move{V: graph.VertexID(i), To: i % 4}
	}
	if _, err := r.Apply(1, directory.Batch{Set: set, Shards: 4}, false); err != nil {
		t.Fatal(err)
	}
	s := &Server{cfg: ServerConfig{Dir: d, Replica: r}}
	rng := rand.New(rand.NewSource(1))
	payloads := make([][]byte, frames)
	for i := range payloads {
		p := appendU64(nil, uint64(i+2))
		p = append(p, 0)
		payloads[i] = appendBatch(p, directory.Batch{Set: []directory.Move{{
			V: graph.VertexID(rng.Intn(ids)), To: rng.Intn(4)}}})
	}
	var (
		slab directory.MoveSlab
		out  []byte
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, p := range payloads {
		c := cursor{p: p}
		if out = s.answerApply(&c, out[:0], &slab); out == nil || out[1] != 0 {
			t.Fatalf("apply frame refused: %x", out)
		}
	}
	runtime.ReadMemStats(&after)
	if got := r.Applied(); got != frames+1 {
		t.Fatalf("replica applied through epoch %d, want %d", got, frames+1)
	}
	got := float64(after.Mallocs-before.Mallocs) / frames
	t.Logf("%.3f objects and %d B per one-move apply frame on a %d-ID replica",
		got, (after.TotalAlloc-before.TotalAlloc)/frames, ids)
	if got > ceiling {
		t.Errorf("one-move apply frame: %.3f objects on average, want <= %.2f", got, ceiling)
	}
}
