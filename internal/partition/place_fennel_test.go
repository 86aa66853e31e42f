package partition

import (
	"testing"

	"ethpart/internal/graph"
)

const fennelHub = graph.VertexID(1000)

// buildPlacement wires hub→v edges with the given weights, adds extra
// background edges, and assigns the listed vertices to shards.
func buildPlacement(t *testing.T, k int, pulls map[graph.VertexID]int64,
	background [][3]int64, assign map[graph.VertexID]int) (*graph.Graph, *Assignment) {
	t.Helper()
	g := graph.New()
	for v, w := range pulls {
		if err := g.AddInteraction(fennelHub, v, graph.KindAccount, graph.KindAccount, w); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range background {
		if err := g.AddInteraction(graph.VertexID(e[0]), graph.VertexID(e[1]),
			graph.KindAccount, graph.KindAccount, e[2]); err != nil {
			t.Fatal(err)
		}
	}
	a, err := NewAssignment(k)
	if err != nil {
		t.Fatal(err)
	}
	for v, s := range assign {
		if _, _, err := a.Assign(v, s); err != nil {
			t.Fatal(err)
		}
	}
	return g, a
}

// TestPlaceVertexFennelOverturnsRawPull pins the objective difference
// between the cap-gated raw-pull rule and the Fennel rule on the same
// input: shard 0 pulls harder (4 vs 1) and both shards sit under every
// capacity, so the raw rule picks shard 0 — but at this edge mass the
// shared degree-based penalty α·γ·|S|^(γ−1) of shard 0's five vertices
// against shard 1's two (α = √3·100/15^1.5 ≈ 2.98: score 4−9.99 vs
// 1−6.32) flips the choice to shard 1.
func TestPlaceVertexFennelOverturnsRawPull(t *testing.T) {
	pulls := map[graph.VertexID]int64{10: 4, 20: 1}
	assign := map[graph.VertexID]int{10: 0, 20: 1}
	for i := graph.VertexID(100); i < 104; i++ {
		assign[i] = 0 // shard 0: 5 vertices
	}
	assign[200] = 1 // shard 1: 2 vertices
	for i := graph.VertexID(300); i < 308; i++ {
		assign[i] = 2 // shard 2: 8 vertices — beyond both capacity rules
	}
	// One heavy background edge brings the total edge mass to 100.
	g, a := buildPlacement(t, 3, pulls, [][3]int64{{100, 101, 95}}, assign)
	scratch := make([]int64, 3)

	if got := PlaceVertex(g, a, fennelHub, scratch); got != 0 {
		t.Fatalf("cap rule picked %d, want 0 (raw pull wins under the cap)", got)
	}
	if got := PlaceVertexFennel(g, a, fennelHub, scratch, a.Counts()); got != 1 {
		t.Errorf("Fennel rule picked %d, want 1 (size penalty overturns the pull)", got)
	}
}

// TestPlaceVertexFennelBalanceAndCapacity pins the rule's guard rails:
// equal pulls prefer the smaller shard, a shard at the hard streaming
// capacity C = n(1+0.1)/k is excluded despite overwhelming pull, and the
// no-neighbour / empty-population paths fall back to least-loaded.
func TestPlaceVertexFennelBalanceAndCapacity(t *testing.T) {
	scratch := make([]int64, 3)

	// Equal pulls, unequal sizes.
	g, a := buildPlacement(t, 2, map[graph.VertexID]int64{10: 2, 20: 2}, nil,
		map[graph.VertexID]int{10: 0, 20: 1, 100: 0, 101: 0})
	if got := PlaceVertexFennel(g, a, fennelHub, scratch, a.Counts()); got != 1 {
		t.Errorf("equal pulls picked %d, want 1 (smaller shard)", got)
	}

	// Hard capacity: shard 0 holds 11 of 12 vertices (capacity 6.6).
	assign := map[graph.VertexID]int{10: 0, 200: 1}
	for i := graph.VertexID(100); i < 110; i++ {
		assign[i] = 0
	}
	g2, a2 := buildPlacement(t, 2, map[graph.VertexID]int64{10: 100}, nil, assign)
	if got := PlaceVertexFennel(g2, a2, fennelHub, scratch, a2.Counts()); got != 1 {
		t.Errorf("over-capacity shard chosen (%d), want 1", got)
	}

	// Empty population: least-loaded (shard 0).
	g3 := graph.New()
	a3, err := NewAssignment(3)
	if err != nil {
		t.Fatal(err)
	}
	if got := PlaceVertexFennel(g3, a3, 1, scratch, a3.Counts()); got != 0 {
		t.Errorf("empty population placed on %d, want 0", got)
	}

	// Live counts, not the assignment's cumulative counts, are what it reads
	// (decay mode: the dead history says shard 0 is packed, the live
	// population says it is empty).
	for i := graph.VertexID(10); i < 20; i++ {
		if _, _, err := a3.Assign(i, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := g3.AddInteraction(1, 2, graph.KindAccount, graph.KindAccount, 1); err != nil {
		t.Fatal(err)
	}
	if got := PlaceVertexFennel(g3, a3, 1, scratch, []int{0, 1, 1}); got != 0 {
		t.Errorf("live-count placement picked %d, want 0 (live says empty)", got)
	}
}
