package partition

import (
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"ethpart/internal/graph"
)

// TestAssignmentResize: grow keeps every assignment and opens empty shards;
// shrink succeeds only once the dropped shards are empty, and the orphan
// error names the offending shard.
func TestAssignmentResize(t *testing.T) {
	a, err := NewAssignment(2)
	if err != nil {
		t.Fatal(err)
	}
	for v := graph.VertexID(0); v < 10; v++ {
		if _, _, err := a.Assign(v, int(v%2)); err != nil {
			t.Fatal(err)
		}
	}

	if err := a.Resize(4); err != nil {
		t.Fatal(err)
	}
	if a.k != 4 {
		t.Fatalf("K after grow = %d, want 4", a.k)
	}
	if a.Count(2) != 0 || a.Count(3) != 0 {
		t.Errorf("new shards not empty: %d, %d", a.Count(2), a.Count(3))
	}
	for v := graph.VertexID(0); v < 10; v++ {
		if s, ok := a.ShardOf(v); !ok || s != int(v%2) {
			t.Errorf("grow moved vertex %d: shard %d, ok=%v", v, s, ok)
		}
	}

	// Shrink with vertices still on shard >= newK must fail and change
	// nothing.
	if _, _, err := a.Assign(100, 3); err != nil {
		t.Fatal(err)
	}
	err = a.Resize(2)
	if err == nil {
		t.Fatal("Resize(2) accepted with a vertex on shard 3")
	}
	if !strings.Contains(err.Error(), "shard 3") {
		t.Errorf("orphan error does not name the shard: %v", err)
	}
	if a.k != 4 {
		t.Errorf("failed shrink changed K to %d", a.k)
	}

	// Drain shard 3, then the shrink goes through.
	if _, _, err := a.Assign(100, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Resize(2); err != nil {
		t.Fatal(err)
	}
	if a.k != 2 {
		t.Fatalf("K after shrink = %d, want 2", a.k)
	}
	if s, ok := a.ShardOf(100); !ok || s != 0 {
		t.Errorf("shrink lost vertex 100: shard %d, ok=%v", s, ok)
	}

	if err := a.Resize(0); err == nil {
		t.Error("Resize(0) accepted")
	}
}

// TestHashShardOfBytesMatchesFNV pins the byte-key fold (the shardchain
// address hash since the unification) to hash/fnv, over 20-byte
// address-shaped keys and other lengths.
func TestHashShardOfBytesMatchesFNV(t *testing.T) {
	var h Hash
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 2000; i++ {
		n := 1 + rng.Intn(32)
		if i%2 == 0 {
			n = 20 // address-shaped
		}
		key := make([]byte, n)
		rng.Read(key)
		ref := fnv.New64a()
		ref.Write(key)
		for _, k := range []int{1, 2, 3, 4, 8, 16} {
			if got, want := h.ShardOfBytes(key, k), int(ref.Sum64()%uint64(k)); got != want {
				t.Fatalf("ShardOfBytes(%x, %d) = %d, want %d", key, k, got, want)
			}
		}
	}
}
