//go:build !race

package graph

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestAllocsResetRebuild is Reset's allocation ceiling: refilling a reset
// graph with the window it last held allocates nothing. Every slot gets the
// vertex it had, so every row's kept backing is long enough. The window's
// rows stay at or under rowIndexThreshold; a hub row past it refills the
// position table Reset left it (TestAllocsHubCompaction covers the
// decaying side).
func TestAllocsResetRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var w [][2]VertexID
	for i := 0; i < 2000; i++ {
		w = append(w, [2]VertexID{VertexID(rng.Intn(500)), VertexID(rng.Intn(500))})
	}
	apply := func(g *Graph) {
		for _, x := range w {
			if err := g.AddInteraction(x[0], x[1], resetKind(x[0]), resetKind(x[1]), 1); err != nil {
				panic(err)
			}
		}
	}
	g := New()
	apply(g)
	for s := range g.out {
		if len(g.out[s].e) > rowIndexThreshold || len(g.in[s].e) > rowIndexThreshold {
			t.Fatalf("slot %d has a row past rowIndexThreshold", s)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		g.Reset()
		apply(g)
	}); allocs != 0 {
		t.Errorf("Reset and refill allocated %.1f objects, want 0", allocs)
	}
}

// growthStream is TestAllocsGraphGrowth's interactions: random traffic
// over 10,000 IDs, where rows climb a few size classes, beside four hubs
// whose out and in rows each reach a few thousand entries.
func growthStream() [][2]VertexID {
	rng := rand.New(rand.NewSource(1))
	var w [][2]VertexID
	for i := 0; i < 40_000; i++ {
		u, v := VertexID(rng.Intn(10_000)), VertexID(rng.Intn(10_000))
		if i%2 == 0 {
			u = VertexID(rng.Intn(4)) // a hub, sending or receiving
			if rng.Intn(2) == 0 {
				u, v = v, u
			}
		}
		w = append(w, [2]VertexID{u, v})
	}
	return w
}

// TestAllocsGraphGrowth is row growth's allocation ceiling: building a
// graph from empty makes at most growthCeiling heap objects per 1,000
// interactions. A full row moves into a block of the next size class,
// drawn from a free list or carved from a chunk, so what remains is the
// chunks, the per-slot records and slot table growing, and the hub rows'
// position tables doubling: 6.45 per 1,000 measured, where a row that
// copied itself into a fresh slice at every growth made 87.97.
func TestAllocsGraphGrowth(t *testing.T) {
	const growthCeiling = 15.0
	w := growthStream()
	allocs := testing.AllocsPerRun(5, func() {
		g := New()
		for _, x := range w {
			if err := g.AddInteraction(x[0], x[1], resetKind(x[0]), resetKind(x[1]), 1); err != nil {
				panic(err)
			}
		}
	})
	per := 1000 * allocs / float64(len(w))
	t.Logf("%.0f objects per build, %.2f per 1,000 interactions", allocs, per)
	if per > growthCeiling {
		t.Errorf("building the graph made %.2f objects per 1,000 interactions, ceiling %.0f", per, growthCeiling)
	}
}

// TestDecayRowStorageBoundedByLiveSet: on a decaying graph, row storage
// follows the live set however long the graph runs. Fresh pairs stream
// through a recycled pool of IDs, each retiring two sweeps after it
// appears, while a long-lived vertex joins every second window and stays.
// A retired vertex's blocks go back to the free lists its successors draw
// from, so a long-lived vertex holds one block, not the chunk that block
// was carved from. The live heap may grow by at most 2 MiB between window
// 100 (when the pool first wraps) and window 400; holding a chunk per
// long-lived vertex grew it by 14 MiB.
func TestDecayRowStorageBoundedByLiveSet(t *testing.T) {
	const (
		windows = 400
		pairs   = 1000
		pool    = 200_000
	)
	g := mustDecaying(t, 2)
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var long []VertexID
	next, early := 0, uint64(0)
	for w := 0; w < windows; w++ {
		if w%2 == 0 {
			long = append(long, pool+VertexID(len(long)))
		}
		for i := 0; i < pairs; i++ {
			mustAdd(t, g, VertexID(next), VertexID(next+1), 1)
			next = (next + 2) % pool
		}
		// Every long-lived vertex keeps an edge to this window's traffic.
		for _, l := range long {
			mustAdd(t, g, l, VertexID(next), 1)
		}
		g.DecaySweep(0.5, nil, nil)
		if w == 99 {
			early = liveHeap()
		}
	}
	late := liveHeap()
	runtime.KeepAlive(g)
	t.Logf("live heap %.2f MiB at window 100, %.2f MiB at window %d (%d live vertices)",
		float64(early)/(1<<20), float64(late)/(1<<20), windows, g.VertexCount())
	if late > early+2<<20 {
		t.Errorf("live heap grew from %.2f to %.2f MiB with a steady live set",
			float64(early)/(1<<20), float64(late)/(1<<20))
	}
}

// TestAllocsHubCompaction is the decay sweep's allocation ceiling on a hub:
// a hub row that every sweep compacts (some of its edges expire, as many
// new ones arrive) rebuilds its position table in place, so a steady-state
// window — the arrivals, the sweep, the retirement of the hub's expired
// neighbours and the reuse of their slots — allocates nothing. Each window
// the hub's row swings between about 800 and 1,000 entries, inside one
// table size.
func TestAllocsHubCompaction(t *testing.T) {
	const (
		maxAge  = 5
		perWin  = 200
		idRange = 1 << 20
	)
	g := mustDecaying(t, maxAge)
	hub := VertexID(idRange)
	next := 0
	window := func() {
		for i := 0; i < perWin; i++ {
			v := VertexID(next)
			next = (next + 1) % (4 * maxAge * perWin)
			if err := g.AddInteraction(hub, v, KindContract, KindAccount, 1); err != nil {
				panic(err)
			}
		}
		g.DecaySweep(0.5, nil, nil)
	}
	// Warm up past one trip round the ID pool, so every slot, block, bucket
	// and table has reached its steady size.
	for w := 0; w < 8*maxAge; w++ {
		window()
	}
	r := &g.out[g.slotOf(hub)]
	size := len(r.idx)
	if n := len(r.e); n <= rowIndexThreshold || size == 0 {
		t.Fatalf("the hub row has %d entries and a %d-slot table; the test needs it indexed", n, size)
	}
	allocs := testing.AllocsPerRun(20, window)
	if allocs != 0 {
		t.Errorf("a steady-state window allocated %.1f objects, want 0", allocs)
	}
	if r := &g.out[g.slotOf(hub)]; len(r.idx) != size {
		t.Errorf("the hub's table went from %d to %d slots", size, len(r.idx))
	}
}

// TestAllocsGraphGrow is Grow's allocation ceiling: after Grow(n), adding n
// vertices with IDs below n, in shuffled order so the ID table reaches its
// length early, allocates nothing. Each run fills a graph of its own, grown
// beforehand. Adding vertices takes no row blocks; an ungrown graph
// allocates for the same additions, which is what Grow saves.
func TestAllocsGraphGrow(t *testing.T) {
	const n, runs = 5_000, 10
	ids := rand.New(rand.NewSource(1)).Perm(n)
	add := func(g *Graph) {
		for _, id := range ids {
			if !g.EnsureVertex(VertexID(id), resetKind(VertexID(id))) {
				t.Fatalf("vertex %d not created", id)
			}
		}
	}
	grown := make([]*Graph, runs+1) // AllocsPerRun makes one warm-up run
	for i := range grown {
		grown[i] = New()
		grown[i].Grow(n)
	}
	next := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		add(grown[next])
		next++
	}); allocs != 0 {
		t.Errorf("adding %d vertices after Grow(%d) allocated %.1f objects, want 0", n, n, allocs)
	}
	if allocs := testing.AllocsPerRun(1, func() { add(New()) }); allocs == 0 {
		t.Error("an ungrown graph added the same vertices without allocating; the test measures nothing")
	}
}
