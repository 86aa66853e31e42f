package partition

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"ethpart/internal/golden"
	"ethpart/internal/graph"
)

// fnvShardOf is the original hash/fnv-based implementation, kept as the
// test oracle for the inlined fold.
func fnvShardOf(v graph.VertexID, k int) int {
	h := fnv.New64a()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(v))
	h.Write(buf[:])
	return int(h.Sum64() % uint64(k))
}

// TestHashShardOfMatchesFNV pins the inlined FNV-1a fold to hash/fnv over
// random IDs, half of them inside the registry's range and half over all
// 64 bits, at every figure shard count. A divergence here would silently
// shift every hashing figure.
func TestHashShardOfMatchesFNV(t *testing.T) {
	var h Hash
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		v := graph.VertexID(rng.Uint64())
		if i%2 == 0 {
			v &= graph.MaxVertexID - 1 // registry-assigned range
		}
		for _, k := range []int{1, 2, 3, 4, 8, 16} {
			if got, want := h.ShardOf(v, k), fnvShardOf(v, k); got != want {
				t.Fatalf("ShardOf(%d, %d) = %d, want %d", v, k, got, want)
			}
		}
	}
}

// TestHashShardOfGolden pins concrete shard outputs
// (testdata/hash_shard_of.json), so the placement of every hash-homed
// vertex — and with it every figure metric — cannot shift even if both
// implementations were changed together.
func TestHashShardOfGolden(t *testing.T) {
	var h Hash
	g := golden.Object(t, "testdata/hash_shard_of.json", func(got, want int) bool { return got == want })
	for _, c := range []struct {
		v graph.VertexID
		k int
	}{
		{0, 2}, {1, 2}, {2, 2}, {3, 2},
		{0, 4}, {1, 4}, {7, 4}, {42, 4},
		{123456, 8}, {1 << 40, 8}, {graph.VertexID(^uint64(0) >> 1), 8},
	} {
		g.Check(t, fmt.Sprintf("ShardOf(%d, %d)", c.v, c.k), h.ShardOf(c.v, c.k))
	}
	g.Done(t)
}

// TestHashShardOfAllocFree pins the hot-path property the inlining buys:
// zero heap allocations per placement, independent of compiler escape
// heuristics on hash.Hash64.
func TestHashShardOfAllocFree(t *testing.T) {
	var h Hash
	if n := testing.AllocsPerRun(1000, func() {
		_ = h.ShardOf(graph.VertexID(123456), 8)
	}); n != 0 {
		t.Errorf("ShardOf allocates %v per op, want 0", n)
	}
}

// BenchmarkHashShardOf tracks the per-placement cost of the MethodHash hot
// path.
func BenchmarkHashShardOf(b *testing.B) {
	var h Hash
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = h.ShardOf(graph.VertexID(i), 8)
	}
}
