package partition

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ethpart/internal/graph"
	"ethpart/internal/metrics"
)

func TestNewAssignmentRejectsBadK(t *testing.T) {
	if _, err := NewAssignment(0); err == nil {
		t.Fatal("k=0 must be rejected")
	}
	if _, err := NewAssignment(-1); err == nil {
		t.Fatal("k=-1 must be rejected")
	}
}

func TestAssignmentBasics(t *testing.T) {
	a, err := NewAssignment(3)
	if err != nil {
		t.Fatal(err)
	}
	prev, moved, err := a.Assign(10, 1)
	if err != nil || prev != NoShard || moved {
		t.Fatalf("first assign: prev=%d moved=%v err=%v", prev, moved, err)
	}
	if s, ok := a.ShardOf(10); !ok || s != 1 {
		t.Fatalf("ShardOf(10) = %d, %v", s, ok)
	}
	if a.Count(1) != 1 || a.Len() != 1 {
		t.Fatalf("counts wrong: %v len %d", a.Counts(), a.Len())
	}

	prev, moved, err = a.Assign(10, 2)
	if err != nil || prev != 1 || !moved {
		t.Fatalf("move: prev=%d moved=%v err=%v", prev, moved, err)
	}
	if a.Count(1) != 0 || a.Count(2) != 1 {
		t.Fatalf("counts after move: %v", a.Counts())
	}

	// Re-assign to the same shard: not a move.
	_, moved, _ = a.Assign(10, 2)
	if moved {
		t.Fatal("same-shard assign must not count as a move")
	}

	if _, _, err := a.Assign(11, 5); err == nil {
		t.Fatal("out-of-range shard must be rejected")
	}
}

// TestAssignmentRejectsOutOfRangeIDs: an ID at or above graph.MaxVertexID
// is refused with an error and leaves the assignment untouched — no count,
// no table growth, nothing for ShardOf or Each to find — so a move of it
// cannot be half-applied either.
func TestAssignmentRejectsOutOfRangeIDs(t *testing.T) {
	a, err := NewAssignment(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Assign(7, 1); err != nil {
		t.Fatal(err)
	}
	for _, v := range []graph.VertexID{graph.MaxVertexID, graph.MaxVertexID + 12345, 1 << 40} {
		if prev, moved, err := a.Assign(v, 2); err == nil || prev != NoShard || moved {
			t.Errorf("Assign(%d) = %d,%v,%v; want an error", v, prev, moved, err)
		}
		if s, ok := a.ShardOf(v); ok {
			t.Errorf("ShardOf(%d) = %d after a refused Assign", v, s)
		}
	}
	if a.Len() != 1 || a.Count(1) != 1 || a.Count(2) != 0 || len(a.shards) != 8 {
		t.Fatalf("refused IDs left a trace: len=%d counts=%v table=%d", a.Len(), a.Counts(), len(a.shards))
	}
	seen := map[graph.VertexID]int{}
	a.Each(func(v graph.VertexID, shard int) bool {
		seen[v] = shard
		return true
	})
	if len(seen) != 1 || seen[7] != 1 {
		t.Fatalf("Each visited %v, want only 7", seen)
	}
}

func TestToPartsMarksUnassigned(t *testing.T) {
	g := graph.New()
	g.EnsureVertex(1, graph.KindAccount)
	g.EnsureVertex(2, graph.KindAccount)
	c := graph.NewCSR(g)
	a, _ := NewAssignment(2)
	a.Assign(1, 1)
	parts := a.ToParts(c)
	// IDs ascend, so vertices 1 and 2 are locals 0 and 1.
	if parts[0] != 1 {
		t.Errorf("assigned vertex got %d", parts[0])
	}
	if parts[1] != NoShard {
		t.Errorf("unassigned vertex got %d, want NoShard", parts[1])
	}
}

func TestHashPartitionerProperties(t *testing.T) {
	g := graph.New()
	for i := 0; i < 10000; i++ {
		g.EnsureVertex(graph.VertexID(i), graph.KindAccount)
	}
	c := graph.NewCSR(g)
	for _, k := range []int{2, 4, 8} {
		parts, err := Hash{}.Partition(c, k)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateParts(parts, k); err != nil {
			t.Fatal(err)
		}
		// Static balance must be near-perfect for a uniform hash.
		bal := metrics.BalanceParts(c, parts, k, false)
		if bal > 1.1 {
			t.Errorf("k=%d hash balance = %.3f, want <= 1.1", k, bal)
		}
	}
}

func TestHashShardStable(t *testing.T) {
	h := Hash{}
	for v := graph.VertexID(0); v < 100; v++ {
		if h.ShardOf(v, 8) != h.ShardOf(v, 8) {
			t.Fatal("hash shard must be deterministic")
		}
		if s := h.ShardOf(v, 8); s < 0 || s >= 8 {
			t.Fatalf("shard %d out of range", s)
		}
	}
}

func TestHashEdgeCutApproachesKMinus1OverK(t *testing.T) {
	// On a random graph the expected hash cut is (k-1)/k; the paper reports
	// ~50% at k=2 and ~88% at k=8.
	rng := rand.New(rand.NewSource(7))
	g := graph.New()
	for i := 0; i < 30000; i++ {
		u := graph.VertexID(rng.Intn(5000))
		v := graph.VertexID(rng.Intn(5000))
		if err := g.AddInteraction(u, v, graph.KindAccount, graph.KindAccount, 1); err != nil {
			t.Fatal(err)
		}
	}
	c := graph.NewCSR(g)
	for _, k := range []int{2, 8} {
		parts, err := Hash{}.Partition(c, k)
		if err != nil {
			t.Fatal(err)
		}
		cut := metrics.EdgeCutParts(c, parts, false)
		want := float64(k-1) / float64(k)
		if math.Abs(cut-want) > 0.05 {
			t.Errorf("k=%d hash cut = %.3f, want ≈ %.3f", k, cut, want)
		}
	}
}

func TestProbabilityMatrix(t *testing.T) {
	// Shard 0 proposes 10 to shard 1; shard 1 proposes 4 back. The oracle
	// must throttle 0→1 to 4/10 and let 1→0 flow fully.
	x := [][]int{
		{0, 10},
		{4, 0},
	}
	p := ProbabilityMatrix(x)
	if got := p[0][1]; math.Abs(got-0.4) > 1e-9 {
		t.Errorf("p[0][1] = %v, want 0.4", got)
	}
	if got := p[1][0]; math.Abs(got-1.0) > 1e-9 {
		t.Errorf("p[1][0] = %v, want 1.0", got)
	}
	if p[0][0] != 0 || p[1][1] != 0 {
		t.Error("diagonal must be zero")
	}
}

func TestProbabilityMatrixZeroFlows(t *testing.T) {
	x := [][]int{
		{0, 5},
		{0, 0},
	}
	p := ProbabilityMatrix(x)
	if p[0][1] != 0 {
		t.Errorf("one-sided flow must have probability 0, got %v", p[0][1])
	}
}

func TestPropertyProbabilityMatrixBalanced(t *testing.T) {
	// Property: expected flow i→j equals expected flow j→i, and every
	// probability is in [0,1].
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kRaw%6) + 2
		x := make([][]int, k)
		for i := range x {
			x[i] = make([]int, k)
			for j := range x[i] {
				if i != j {
					x[i][j] = rng.Intn(50)
				}
			}
		}
		p := ProbabilityMatrix(x)
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if p[i][j] < 0 || p[i][j] > 1 {
					return false
				}
				flowIJ := p[i][j] * float64(x[i][j])
				flowJI := p[j][i] * float64(x[j][i])
				if math.Abs(flowIJ-flowJI) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clusteredCSR builds two planted clusters and returns the CSR.
func clusteredCSR(rng *rand.Rand, n int) *graph.CSR {
	g := graph.New()
	for c := 0; c < 2; c++ {
		base := c * n
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(3) == 0 {
					continue
				}
				u := graph.VertexID(base + i)
				v := graph.VertexID(base + j)
				if err := g.AddInteraction(u, v, graph.KindAccount, graph.KindAccount, 3); err != nil {
					panic(err)
				}
			}
		}
	}
	for b := 0; b < 4; b++ {
		u := graph.VertexID(rng.Intn(n))
		v := graph.VertexID(n + rng.Intn(n))
		if err := g.AddInteraction(u, v, graph.KindAccount, graph.KindAccount, 1); err != nil {
			panic(err)
		}
	}
	return graph.NewCSR(g)
}

func TestKLImprovesHashPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	c := clusteredCSR(rng, 30)
	start, err := Hash{}.Partition(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	kl := NewKL()
	refined, err := kl.Refine(c, 2, start)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateParts(refined, 2); err != nil {
		t.Fatal(err)
	}
	before := metrics.EdgeCutParts(c, start, true)
	after := metrics.EdgeCutParts(c, refined, true)
	if after >= before {
		t.Errorf("KL did not improve cut: %.4f -> %.4f", before, after)
	}
	// KL must keep shards roughly balanced (the oracle matches flows).
	bal := metrics.BalanceParts(c, refined, 2, false)
	if bal > 1.4 {
		t.Errorf("KL balance = %.3f, want <= 1.4", bal)
	}
}

func TestKLInputValidation(t *testing.T) {
	c := graph.NewCSR(graph.New())
	kl := NewKL()
	if _, err := kl.Refine(c, 0, nil); err == nil {
		t.Error("k=0 must be rejected")
	}
	g := graph.New()
	g.EnsureVertex(1, graph.KindAccount)
	c = graph.NewCSR(g)
	if _, err := kl.Refine(c, 2, []int{}); err == nil {
		t.Error("length mismatch must be rejected")
	}
	if _, err := kl.Refine(c, 2, []int{7}); err == nil {
		t.Error("illegal shard in current must be rejected")
	}
}

func TestKLDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := clusteredCSR(rng, 10)
	start, _ := Hash{}.Partition(c, 2)
	orig := append([]int(nil), start...)
	if _, err := NewKL().Refine(c, 2, start); err != nil {
		t.Fatal(err)
	}
	for i := range start {
		if start[i] != orig[i] {
			t.Fatal("Refine mutated its input")
		}
	}
}

func TestPlaceVertexPrefersNeighbourShard(t *testing.T) {
	g := graph.New()
	// v=100 interacts heavily with 1 (shard 0) and lightly with 2 (shard 1).
	mustAdd(t, g, 100, 1, 5)
	mustAdd(t, g, 100, 2, 1)
	a, _ := NewAssignment(2)
	a.Assign(1, 0)
	a.Assign(2, 1)
	if got := PlaceVertex(g, a, 100, make([]int64, a.K()), nil); got != 0 {
		t.Errorf("PlaceVertex = %d, want 0 (heavier attraction)", got)
	}
}

func TestPlaceVertexTieBreaksTowardBalance(t *testing.T) {
	g := graph.New()
	mustAdd(t, g, 100, 1, 3)
	mustAdd(t, g, 100, 2, 3)
	a, _ := NewAssignment(2)
	a.Assign(1, 0)
	a.Assign(2, 1)
	// Load shard 0 with extra vertices so the tie breaks to shard 1.
	a.Assign(50, 0)
	a.Assign(51, 0)
	if got := PlaceVertex(g, a, 100, make([]int64, a.K()), nil); got != 1 {
		t.Errorf("PlaceVertex = %d, want 1 (balance tie-break)", got)
	}
}

func TestPlaceVertexNoNeighboursFallsBackToLeastLoaded(t *testing.T) {
	g := graph.New()
	g.EnsureVertex(100, graph.KindAccount)
	a, _ := NewAssignment(3)
	a.Assign(1, 0)
	a.Assign(2, 0)
	a.Assign(3, 1)
	if got := PlaceVertex(g, a, 100, make([]int64, a.K()), nil); got != 2 {
		t.Errorf("PlaceVertex = %d, want 2 (empty shard)", got)
	}
}

func mustAdd(t *testing.T, g *graph.Graph, u, v graph.VertexID, w int64) {
	t.Helper()
	if err := g.AddInteraction(u, v, graph.KindAccount, graph.KindAccount, w); err != nil {
		t.Fatal(err)
	}
}
