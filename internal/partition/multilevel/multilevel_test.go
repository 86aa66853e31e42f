package multilevel

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"ethpart/internal/graph"
	"ethpart/internal/metrics"
)

// ringGraph returns a cycle of n vertices with unit weights.
func ringGraph(n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		u := graph.VertexID(i)
		v := graph.VertexID((i + 1) % n)
		if err := g.AddInteraction(u, v, graph.KindAccount, graph.KindAccount, 1); err != nil {
			panic(err)
		}
	}
	return g
}

// twoClusters returns two dense clusters of size n joined by `bridges`
// light edges — the canonical case a partitioner must split cleanly.
func twoClusters(n, bridges int, rng *rand.Rand) *graph.Graph {
	g := graph.New()
	addClique := func(base int) {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(3) == 0 { // sparse-ish cluster
					continue
				}
				u := graph.VertexID(base + i)
				v := graph.VertexID(base + j)
				if err := g.AddInteraction(u, v, graph.KindAccount, graph.KindAccount, 4); err != nil {
					panic(err)
				}
			}
		}
	}
	addClique(0)
	addClique(n)
	for b := 0; b < bridges; b++ {
		u := graph.VertexID(rng.Intn(n))
		v := graph.VertexID(n + rng.Intn(n))
		if err := g.AddInteraction(u, v, graph.KindAccount, graph.KindAccount, 1); err != nil {
			panic(err)
		}
	}
	return g
}

func partsValid(t *testing.T, parts []int, n, k int) {
	t.Helper()
	if len(parts) != n {
		t.Fatalf("parts length = %d, want %d", len(parts), n)
	}
	for i, s := range parts {
		if s < 0 || s >= k {
			t.Fatalf("vertex %d in illegal shard %d", i, s)
		}
	}
}

func TestPartitionEmptyGraph(t *testing.T) {
	c := graph.NewCSR(graph.New())
	parts, err := New(Config{}).Partition(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 0 {
		t.Fatalf("parts = %v", parts)
	}
}

func TestPartitionK1(t *testing.T) {
	c := graph.NewCSR(ringGraph(10))
	parts, err := New(Config{}).Partition(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range parts {
		if s != 0 {
			t.Fatal("k=1 must place everything in shard 0")
		}
	}
}

func TestPartitionRejectsBadK(t *testing.T) {
	c := graph.NewCSR(ringGraph(10))
	if _, err := New(Config{}).Partition(c, 0); err == nil {
		t.Fatal("k=0 must be rejected")
	}
}

func TestBisectRingIsBalancedAndCheap(t *testing.T) {
	g := ringGraph(200)
	c := graph.NewCSR(g)
	parts, err := New(Config{Seed: 7}).Partition(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	partsValid(t, parts, 200, 2)
	bal := metrics.BalanceParts(c, parts, 2, false)
	if bal > 1.10 {
		t.Errorf("ring bisection balance = %.3f, want <= 1.10", bal)
	}
	// A ring's optimal bisection cuts exactly 2 of 200 edges. Allow slack
	// but demand far better than the random 50%.
	cut := metrics.EdgeCutParts(c, parts, false)
	if cut > 0.10 {
		t.Errorf("ring bisection cut = %.3f, want <= 0.10", cut)
	}
}

func TestBisectTwoClustersFindsTheSeam(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := twoClusters(40, 4, rng)
	c := graph.NewCSR(g)
	parts, err := New(Config{Seed: 3}).Partition(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	partsValid(t, parts, 80, 2)
	// The planted cut is 4 light edges; anything near it is a win. Demand
	// a dynamic cut under 5% (hash would give ~50%).
	cut := metrics.EdgeCutParts(c, parts, true)
	if cut > 0.05 {
		t.Errorf("two-cluster dynamic cut = %.4f, want <= 0.05", cut)
	}
	bal := metrics.BalanceParts(c, parts, 2, false)
	if bal > 1.15 {
		t.Errorf("two-cluster balance = %.3f, want <= 1.15", bal)
	}
}

func TestKWayNonPowerOfTwo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := twoClusters(30, 3, rng)
	c := graph.NewCSR(g)
	for _, k := range []int{3, 5, 7} {
		parts, err := New(Config{Seed: 5}).Partition(c, k)
		if err != nil {
			t.Fatal(err)
		}
		partsValid(t, parts, c.N(), k)
		bal := metrics.BalanceParts(c, parts, k, false)
		if bal > 1.5 {
			t.Errorf("k=%d balance = %.3f, want <= 1.5", k, bal)
		}
		// All k shards must be populated on a graph this large.
		seen := make(map[int]bool)
		for _, s := range parts {
			seen[s] = true
		}
		if len(seen) != k {
			t.Errorf("k=%d produced only %d non-empty shards", k, len(seen))
		}
	}
}

func TestDeterministicForFixedSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := twoClusters(25, 5, rng)
	c := graph.NewCSR(g)
	p := New(Config{Seed: 11})
	a, err := p.Partition(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{Seed: 11}).Partition(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical partitions")
		}
	}
}

func TestHeavyEdgeMatchingRespectsWeightCap(t *testing.T) {
	// A star: hub 0 with 50 leaves. With a tight cap the hub cannot absorb
	// more than allowed.
	g := graph.New()
	for i := 1; i <= 50; i++ {
		if err := g.AddInteraction(0, graph.VertexID(i), graph.KindContract, graph.KindAccount, 1); err != nil {
			t.Fatal(err)
		}
	}
	c := graph.NewCSR(g)
	ml := fromCSR(new(arena), c)
	rng := rand.New(rand.NewSource(2))
	cmap, nCoarse := heavyEdgeMatching(new(arena), ml, rng, 2)
	// With maxVW=2 every coarse vertex holds at most 2 fine vertices.
	counts := make(map[int32]int)
	for _, cidx := range cmap {
		counts[cidx]++
		if counts[cidx] > 2 {
			t.Fatalf("coarse vertex %d has %d members, cap was 2", cidx, counts[cidx])
		}
	}
	if nCoarse < 26 {
		t.Errorf("nCoarse = %d, impossible under the cap", nCoarse)
	}
}

func TestContractPreservesTotals(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := twoClusters(20, 3, rng)
	c := graph.NewCSR(g)
	ml := fromCSR(new(arena), c)
	cmap, nCoarse := heavyEdgeMatching(new(arena), ml, rng, ml.totalVW/4)
	a := new(arena)
	coarse := contract(a, a, ml, cmap, nCoarse)

	if coarse.totalVW != ml.totalVW {
		t.Errorf("coarse totalVW = %d, want %d", coarse.totalVW, ml.totalVW)
	}
	var fineVW, coarseVW int64
	for _, w := range ml.vw {
		fineVW += w
	}
	for _, w := range coarse.vw {
		coarseVW += w
	}
	if fineVW != coarseVW {
		t.Errorf("sum of vertex weights changed: %d -> %d", fineVW, coarseVW)
	}
	// Cross-pair edge weight is preserved: cut of any projected partition
	// is identical. Check with an arbitrary split of coarse vertices.
	side := make([]uint8, nCoarse)
	for i := range side {
		side[i] = uint8(i % 2)
	}
	fineSide := make([]uint8, ml.n())
	for v := range fineSide {
		fineSide[v] = side[cmap[v]]
	}
	if got, want := coarse.cutOf(side), ml.cutOf(fineSide); got != want {
		t.Errorf("projected cut mismatch: coarse %d, fine %d", got, want)
	}
}

// TestRefinementImprovesCut refines a bisection the way bisect does on the
// way up: grown on a coarse level, projected to the fine one, then polished
// by fmRefine, which must not raise the projected cut.
func TestRefinementImprovesCut(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ml := fromCSR(new(arena), graph.NewCSR(twoClusters(30, 3, rng)))
	a := new(arena)
	cmap, nCoarse := heavyEdgeMatching(a, ml, rng, max(ml.totalVW/16, 4))
	coarse := contract(a, a, ml, cmap, nCoarse)
	targetLeft := ml.totalVW / 2
	coarseSide := growBisection(a, coarse, rng, targetLeft)
	side := make([]uint8, ml.n())
	for v := range side {
		side[v] = coarseSide[cmap[v]]
	}
	projected := ml.cutOf(side)
	fmRefine(a, ml, side, targetLeft, max(int64(epsilon*float64(ml.totalVW)), 1), fmPasses)
	if refined := ml.cutOf(side); refined > projected {
		t.Errorf("refinement raised the cut: %d -> %d", projected, refined)
	}
}

func TestFMRefineRespectsBalanceEnvelope(t *testing.T) {
	// Start from a wildly unbalanced partition of a ring; FM must improve
	// or keep the deviation, never worsen it.
	g := ringGraph(100)
	c := graph.NewCSR(g)
	ml := fromCSR(new(arena), c)
	side := make([]uint8, 100) // everything on side 0
	target := ml.totalVW / 2
	before := abs64(sideWeight(ml, side) - target)
	fmRefine(new(arena), ml, side, target, 5, 8)
	after := abs64(sideWeight(ml, side) - target)
	if after > before {
		t.Errorf("FM worsened balance deviation: %d -> %d", before, after)
	}
}

func sideWeight(g *mlGraph, side []uint8) int64 {
	var w int64
	for v, s := range side {
		if s == 0 {
			w += g.vw[v]
		}
	}
	return w
}

func TestPropertyPartitionAlwaysValid(t *testing.T) {
	f := func(seed int64, nRaw, mRaw, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%60) + 2
		m := int(mRaw%200) + 1
		k := int(kRaw%7) + 1
		g := graph.New()
		for i := 0; i < m; i++ {
			u := graph.VertexID(rng.Intn(n))
			v := graph.VertexID(rng.Intn(n))
			if err := g.AddInteraction(u, v, graph.KindAccount, graph.KindAccount, int64(1+rng.Intn(4))); err != nil {
				return false
			}
		}
		c := graph.NewCSR(g)
		parts, err := New(Config{Seed: seed}).Partition(c, k)
		if err != nil {
			return false
		}
		if len(parts) != c.N() {
			return false
		}
		for _, s := range parts {
			if s < 0 || s >= k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyBisectionBeatsRandomOnClusters(t *testing.T) {
	// Property: on planted two-cluster graphs the multilevel cut is always
	// well below the ~50% a random split gives.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := twoClusters(20+rng.Intn(20), 2+rng.Intn(4), rng)
		c := graph.NewCSR(g)
		parts, err := New(Config{Seed: seed}).Partition(c, 2)
		if err != nil {
			return false
		}
		return metrics.EdgeCutParts(c, parts, true) < 0.25
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPartitionMedium(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := graph.New()
	// Preferential-attachment-ish graph with 20k vertices.
	for i := 1; i < 20000; i++ {
		t := rng.Intn(i)
		if err := g.AddInteraction(graph.VertexID(i), graph.VertexID(t), graph.KindAccount, graph.KindAccount, int64(1+rng.Intn(3))); err != nil {
			b.Fatal(err)
		}
	}
	c := graph.NewCSR(g)
	p := New(Config{Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Partition(c, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// chordRing returns a ring of 300 unit edges plus one chord of weight 1789:
// total edge weight 2089, every weight multiplied by scale, and plus extra
// on the first ring edge. Most of the weight sits on the chord, so at
// scale 256,999 (2089 × 256,999 = MaxTotalEdgeWeight) its endpoints'
// degrees, gains and growing bumps come near the bound's proof limits.
func chordRing(scale, extra int64) *graph.CSR {
	g := graph.New()
	add := func(u, v int, w int64) {
		if err := g.AddInteraction(graph.VertexID(u), graph.VertexID(v), graph.KindAccount, graph.KindAccount, w); err != nil {
			panic(err)
		}
	}
	for i := 0; i < 300; i++ {
		w := scale
		if i == 0 {
			w += extra
		}
		add(i, (i+1)%300, w)
	}
	add(0, 150, 1789*scale)
	return graph.NewCSR(g)
}

// TestPartitionEdgeWeightBound: a CSR one past MaxTotalEdgeWeight is
// refused with an error naming the limit, before anything the size of the
// graph is allocated; one at the bound partitions exactly as the same graph
// with every weight divided by 256,999 (the partitioner compares edge
// weights and gains only with each other, so a uniform scale cannot change
// its output) — no int32 wrapped on the way.
func TestPartitionEdgeWeightBound(t *testing.T) {
	const scale = 256_999
	at, past := chordRing(scale, 0), chordRing(scale, 1)
	if at.TotalEW != MaxTotalEdgeWeight || past.TotalEW != MaxTotalEdgeWeight+1 {
		t.Fatalf("TotalEW %d and %d, want the bound %d and one past it", at.TotalEW, past.TotalEW, MaxTotalEdgeWeight)
	}

	p := New(Config{Seed: 3})
	parts, err := p.Partition(past, 4)
	if err == nil || parts != nil {
		t.Fatalf("one past the bound: parts %v, err %v; want a refusal", parts != nil, err)
	}
	if limit := fmt.Sprint(MaxTotalEdgeWeight); !strings.Contains(err.Error(), limit) {
		t.Errorf("error %q does not name the limit %s", err, limit)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		p.Partition(past, 4)
	}
	runtime.ReadMemStats(&after)
	// The parts slice alone would be 8 bytes per vertex.
	if perCall := (after.TotalAlloc - before.TotalAlloc) / runs; perCall >= uint64(8*past.N()) {
		t.Errorf("a refused call allocated %d B, at least its %d-vertex parts slice", perCall, past.N())
	}

	base := chordRing(1, 0)
	for _, k := range []int{2, 3, 5} {
		got, err := p.Partition(at, k)
		if err != nil {
			t.Fatalf("k=%d at the bound: %v", k, err)
		}
		want, err := p.Partition(base, k)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("k=%d: the partition at the bound differs from the unscaled graph's", k)
		}
	}
}
