package graph

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// buildRetiredEraGraph grows a graph through a sequence of historical eras
// of distinct vertices — inflating MaxID, the dense ID space high-water
// mark — each era retired past the horizon before the next begins, so
// retired slots are reused and peak slot storage stays O(era), decoupled
// from MaxID. It then establishes a small live set of `live` vertices on
// IDs spread across the whole historical space. The result is the regime
// the O(live) hot-path contract is about: a tiny live graph inside a huge
// historical ID space.
func buildRetiredEraGraph(tb testing.TB, historical, live int, maxAge uint32) *Graph {
	tb.Helper()
	g := mustDecaying(tb, maxAge)
	const eraSize = 512
	for lo := 0; lo < historical; lo += eraSize {
		hi := lo + eraSize
		if hi > historical {
			hi = historical
		}
		for i := lo; i < hi; i++ {
			next := i + 1
			if next == hi {
				next = lo
			}
			if err := g.AddInteraction(VertexID(i), VertexID(next),
				KindAccount, KindAccount, 1); err != nil {
				tb.Fatal(err)
			}
		}
		for i := uint32(0); i <= maxAge; i++ {
			g.DecaySweep(0.5, nil, nil)
		}
	}
	if g.VertexCount() != 0 {
		tb.Fatalf("historical eras not fully retired: %d live", g.VertexCount())
	}
	stride := (historical - 1) / live
	for i := 0; i < live; i++ {
		from := VertexID(i * stride)
		to := VertexID(((i + 1) % live) * stride)
		if err := g.AddInteraction(from, to, KindAccount, KindAccount, 1); err != nil {
			tb.Fatal(err)
		}
	}
	// One sweep settles the fresh weights; the live set is inside the
	// horizon and survives.
	g.DecaySweep(0.5, nil, nil)
	if g.VertexCount() != live {
		tb.Fatalf("live set = %d vertices, want %d", g.VertexCount(), live)
	}
	return g
}

// hubSweep builds a star — hub 0 with out-edges to 1..d — lets every edge
// age one sweep, re-touches the odd spokes, and runs the sweep in which the
// d/2 even spokes (interleaved through the hub's row, the worst case for
// one-at-a-time removal) hit the horizon of 2. It returns the graph and
// that sweep's wall time; with eager set the plain graph is swept by the
// reference instead.
func hubSweep(tb testing.TB, d int, eager bool) (*Graph, time.Duration) {
	tb.Helper()
	const maxAge = 2
	g := New()
	sweep := func() { g.eagerSweep(0.5, maxAge, nil, nil) }
	if !eager {
		g = mustDecaying(tb, maxAge)
		sweep = func() { g.DecaySweep(0.5, nil, nil) }
	}
	for i := 1; i <= d; i++ {
		if err := g.AddInteraction(0, VertexID(i), KindContract, KindAccount, 1); err != nil {
			tb.Fatal(err)
		}
	}
	sweep()
	for i := 1; i <= d; i += 2 {
		if err := g.AddInteraction(0, VertexID(i), KindContract, KindAccount, 1); err != nil {
			tb.Fatal(err)
		}
	}
	start := time.Now()
	sweep()
	elapsed := time.Since(start)
	if g.EdgeCount() != d/2 {
		tb.Fatalf("hub kept %d edges of %d, want %d", g.EdgeCount(), d, d/2)
	}
	return g, elapsed
}

// TestHotPathBoundedByLiveGraph is the O(live) regression guard: after
// mass retirement shrinks the live graph to N vertices inside a historical
// ID space of tens of thousands, a CSR rebuild must allocate O(N) — not
// the O(MaxID) index table the old per-build memset paid — its counted
// index-clear loop must touch at most N entries per build, and a quiet
// decay sweep must visit nothing at all. Against the pre-refactor code the
// allocation bound fails by more than an order of magnitude (an 80 KB
// dense Index per build at MaxID 20000). The hub-degree axis guards the
// other way a sweep can stop being O(touched): a super-vertex losing half
// its edges in one sweep must pay per dropped edge, not per dropped edge
// times its degree.
func TestHotPathBoundedByLiveGraph(t *testing.T) {
	const (
		historical = 20000
		live       = 64
		maxAge     = uint32(4)
		builds     = 50
	)
	g := buildRetiredEraGraph(t, historical, live, maxAge)
	if int(g.MaxID()) != historical {
		t.Fatalf("MaxID = %d, want the full historical ID space %d", g.MaxID(), historical)
	}

	var b CSRBuilder
	// Warm-up build: pays the one-time scratch growth to MaxID and sizes
	// the merge buffers, like the simulator's long-lived builder has by
	// steady state.
	if err := b.Build(g).Validate(); err != nil {
		t.Fatal(err)
	}
	indexLen := len(b.index)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var c *CSR
	dirty := 0
	for i := 0; i < builds; i++ {
		c = b.Build(g)
		// The post-build clear walk restores the scratch index: every
		// entry is -1 again, however few IDs the build wrote.
		for _, x := range b.index {
			if x != -1 {
				dirty++
			}
		}
	}
	runtime.ReadMemStats(&after)
	if dirty > 0 {
		t.Errorf("%d scratch index entries left set after builds, want every entry -1", dirty)
	}
	if len(b.index) != indexLen {
		t.Errorf("scratch index grew from %d to %d entries after the warm-up build", indexLen, len(b.index))
	}
	if c.N() != live {
		t.Fatalf("CSR.N = %d, want %d", c.N(), live)
	}

	perBuild := (after.TotalAlloc - before.TotalAlloc) / builds
	// O(live) budget: the CSR's own slices for 64 vertices come to ~2 KB;
	// 16 KB leaves generous headroom while sitting far below the 80 KB
	// (historical × 4 bytes) the dense per-build index table cost.
	if limit := uint64(16 << 10); perBuild > limit {
		t.Errorf("CSR build allocates %d B at %d live vertices (MaxID %d), want <= %d B (O(live), not O(MaxID))",
			perBuild, live, historical, limit)
	}

	// Sweep side of the contract. The first sweep after the live burst
	// still drains the burst's schedule entries — O(live). The one after
	// that is quiet: no bucket due, no heavy weight left, so the sweep must
	// do no work at all however large the graph's history.
	d1 := g.DecaySweep(0.5, nil, nil)
	if d1.Touched > 4*live {
		t.Errorf("post-burst sweep touched %d entries, want <= %d (O(live))", d1.Touched, 4*live)
	}
	d2 := g.DecaySweep(0.5, nil, nil)
	if d2.Touched != 0 || !d2.Quiet() {
		t.Errorf("quiet sweep touched %d entries (quiet=%v), want zero work", d2.Touched, d2.Quiet())
	}

	// Hub-degree axis: cost per dropped edge at 8× the degree, best of five
	// to shed scheduler noise. Batch compaction keeps the ratio near 1;
	// removing the edges one at a time made it ≈11.
	perDrop := func(d int) float64 {
		best := time.Duration(1 << 62)
		for i := 0; i < 5; i++ {
			if _, el := hubSweep(t, d, false); el < best {
				best = el
			}
		}
		return float64(best.Nanoseconds()) / float64(d/2)
	}
	small, large := perDrop(1000), perDrop(8000)
	t.Logf("hub sweep: %.0f ns per dropped edge at d=1000, %.0f ns at d=8000", small, large)
	if large >= 3*small {
		t.Errorf("per-dropped-edge sweep cost grew %.1f× (%.0f ns → %.0f ns) for 8× the hub degree, want < 3×",
			large/small, small, large)
	}
	// The compacted rows must read back in exactly the order a full
	// in-order scan leaves them.
	got, _ := hubSweep(t, 8000, false)
	want, _ := hubSweep(t, 8000, true)
	if !reflect.DeepEqual(dumpGraph(got), dumpGraph(want)) {
		t.Error("hub graph after the sweep differs from the eager reference (vertex, Edges or in-row order)")
	}
	neighbors := func(g *Graph) (vs []VertexID) {
		g.Neighbors(0, func(v VertexID, _ int64) bool {
			vs = append(vs, v)
			return true
		})
		return vs
	}
	if !reflect.DeepEqual(neighbors(got), neighbors(want)) {
		t.Error("hub Neighbors order after the sweep differs from the eager reference")
	}
}

// BenchmarkCSRRebuildAfterRetirement pins the CSR half of the O(live)
// claim for CI: rebuild cost at a fixed live-vertex count across a 20×
// spread of historical ID space (MaxID). With the builder-owned scratch
// index the three curves coincide; the old dense per-build Index table
// made cost track MaxID.
func BenchmarkCSRRebuildAfterRetirement(b *testing.B) {
	const live = 256
	for _, historical := range []int{live * 4, live * 20, live * 80} {
		b.Run(fmt.Sprintf("live=%d/maxid=%d", live, historical), func(b *testing.B) {
			g := buildRetiredEraGraph(b, historical, live, 4)
			var builder CSRBuilder
			builder.Build(g) // one-time scratch growth
			b.ReportAllocs()
			b.ResetTimer()
			var c *CSR
			for i := 0; i < b.N; i++ {
				c = builder.Build(g)
			}
			b.StopTimer()
			b.ReportMetric(float64(c.N()), "live-vertices")
			b.ReportMetric(float64(g.MaxID()), "max-id")
		})
	}
}

// BenchmarkQuietWindowSweep pins the sweep half of the O(live) claim: the
// cost of a quiet decay sweep (nothing expires, nothing above the decay
// floor) across a 10× spread of live-graph size stays flat — a quiet
// window costs nothing regardless of how much is live.
func BenchmarkQuietWindowSweep(b *testing.B) {
	for _, live := range []int{2000, 20000} {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			// A horizon at the upper bound keeps every entry inside it for
			// any realistic b.N, so the measured sweeps stay genuinely quiet.
			g := mustDecaying(b, MaxDecayAge)
			for i := 0; i < live; i++ {
				if err := g.AddInteraction(VertexID(i), VertexID((i+1)%live),
					KindAccount, KindAccount, 2); err != nil {
					b.Fatal(err)
				}
			}
			// Warm sweeps: grind every weight to the decay floor and
			// drain the heavy lists; afterwards each sweep is quiet.
			for i := 0; i < 3; i++ {
				g.DecaySweep(0.5, nil, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var touched int
			for i := 0; i < b.N; i++ {
				touched += g.DecaySweep(0.5, nil, nil).Touched
			}
			b.StopTimer()
			b.ReportMetric(float64(touched)/float64(b.N), "touched/sweep")
			b.ReportMetric(float64(g.VertexCount()), "live-vertices")
		})
	}
}
