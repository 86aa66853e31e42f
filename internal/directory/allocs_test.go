//go:build !race

package directory

import (
	"math/rand"
	"runtime"
	"testing"

	"ethpart/internal/graph"
)

// Allocation and retention ceilings (the race detector instruments
// allocations, hence the build tag): what a commit costs in heap bytes,
// pinned so it cannot grow back into a page copy or into a function of how
// much has ever been retired, and what a directory keeps live after many
// commits. DESIGN §5, "Two tiers".

// TestAllocsTierMoveIndependentOfColdCount: a retire-one, a rehydrate-one, a
// SetCold-one and a Promote-one commit each copy the one or two page nodes
// and leaves they write plus those tiers' page tables, whether the cold
// tier holds 10k or 200k entries. Both directories span the same ID range,
// so their page tables (8 B per 1024 IDs of range — the one term that is
// not constant, 3.1 KiB a tier here) are equally long and the two
// measurements must agree. Page tables are carved from slabs of eight of
// the same length, so every kind pays its share of the slabs. Measured at
// 3.1–4.8 KiB.
func TestAllocsTierMoveIndependentOfColdCount(t *testing.T) {
	const (
		universe = 400_000 // odd IDs stay hot, so no page ever empties
		v        = graph.VertexID(200_000)
		rounds   = 20
		ceiling  = 10 << 10
	)
	commitBytes := func(d *Directory, b Batch) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := d.CommitBatch(b, false); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// measure returns mean bytes per commit for each kind of tier move, on a
	// directory whose cold tier holds every stride-th ID of the universe.
	measure := func(stride int) map[string]uint64 {
		d := New(Config{})
		set := make([]Move, universe)
		for i := range set {
			set[i] = Move{V: graph.VertexID(i), To: i % 4}
		}
		var retire []graph.VertexID
		for i := 0; i < universe; i += stride {
			retire = append(retire, graph.VertexID(i))
		}
		mustCommit(t, d, Batch{Set: set, Shards: 4})
		mustCommit(t, d, Batch{Retire: retire})
		if got := d.Current().ColdLen(); got != len(retire) {
			t.Fatalf("setup: cold = %d, want %d", got, len(retire))
		}
		sum := map[string]uint64{}
		for r := 0; r < rounds; r++ {
			// v starts (and ends) each round cold.
			sum["promote"] += commitBytes(d, Batch{Promote: []graph.VertexID{v}})
			sum["retire"] += commitBytes(d, Batch{Retire: []graph.VertexID{v}})
			sum["rehydrate"] += commitBytes(d, Batch{Set: []Move{{V: v, To: r % 4}}})
			if sh, cold, ok := d.Current().LookupTier(v); !ok || cold || sh != r%4 {
				t.Fatalf("the rehydrating Set left %d at (%d,cold=%v,ok=%v)", v, sh, cold, ok)
			}
			mustCommit(t, d, Batch{Retire: []graph.VertexID{v}})
			sum["setcold"] += commitBytes(d, Batch{SetCold: []Move{{V: v, To: r % 4}}})
		}
		if st := d.Stats(); st.Cold != len(retire) || st.Promoted != rounds {
			t.Fatalf("the measured commits did not move tiers as intended: %+v", st)
		}
		for kind := range sum {
			sum[kind] /= rounds
		}
		return sum
	}

	small, large := measure(40), measure(2) // 10k and 200k cold entries
	for kind, s := range small {
		l := large[kind]
		t.Logf("%s-one commit: %d B at 10k cold, %d B at 200k cold", kind, s, l)
		if s > ceiling || l > ceiling {
			t.Errorf("%s-one commit: %d B at 10k cold, %d B at 200k cold, want < %d B", kind, s, l, ceiling)
		}
		if lo, hi := min(s, l), max(s, l); hi-lo > lo/10 {
			t.Errorf("%s-one commit: %d B at 10k cold vs %d B at 200k cold, want within 10%%", kind, s, l)
		}
	}
}

// TestAllocsOneMoveCommit: a commit that moves one hot vertex to another
// shard copies the hot tier's page table (8 B per 1024 IDs of range), one
// page node and one 128-B leaf, and publishes one snapshot. On a 50k-ID
// directory that is under 1 KiB per commit on average; a whole-page copy
// alone is 2 KiB. Each of the four is a share of a chunk, so the commit
// makes 1/16 + 1/8 + 1/8 + 1/8 = 0.4375 heap objects; measured at 760 B
// and 0.4375 objects.
func TestAllocsOneMoveCommit(t *testing.T) {
	const (
		ids            = 50_000
		commits        = 4096
		ceiling        = 1024
		objectsCeiling = 0.45
	)
	d := New(Config{})
	set := make([]Move, ids)
	for i := range set {
		set[i] = Move{V: graph.VertexID(i), To: i % 4}
	}
	mustCommit(t, d, Batch{Set: set, Shards: 4})
	rng := rand.New(rand.NewSource(1))
	moves := make([]Move, commits)
	for i := range moves {
		moves[i] = Move{V: graph.VertexID(rng.Intn(ids)), To: rng.Intn(4)}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range moves {
		if _, err := d.CommitBatch(Batch{Set: moves[i : i+1]}, false); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / commits
	objects := float64(after.Mallocs-before.Mallocs) / commits
	t.Logf("%d B and %.4f objects per one-move commit on a %d-ID directory", got, objects, ids)
	if got > ceiling {
		t.Errorf("one-move commit: %d B on average, want <= %d B", got, ceiling)
	}
	if objects > objectsCeiling {
		t.Errorf("one-move commit: %.4f objects on average, want <= %.2f", objects, objectsCeiling)
	}
}

// TestAllocsPublisherFlush: a flush of one placement — the operational
// bridge's once-per-record commit — makes a share of a Set slab, a snapshot
// chunk, a page-table slab, a page-node chunk and a leaf chunk: under half
// a heap object on average, where a fresh batch lane, snapshot and table
// made 3.375 with the chunks' shares. Measured at 0.44 objects.
func TestAllocsPublisherFlush(t *testing.T) {
	const (
		ids     = 50_000
		flushes = 4096
		ceiling = 0.5
	)
	d := New(Config{})
	set := make([]Move, ids)
	for i := range set {
		set[i] = Move{V: graph.VertexID(i), To: i % 4}
	}
	mustCommit(t, d, Batch{Set: set, Shards: 4})
	p := NewPublisher(d)
	p.SetShards(4)
	rng := rand.New(rand.NewSource(1))
	moves := make([]Move, flushes)
	for i := range moves {
		moves[i] = Move{V: graph.VertexID(rng.Intn(ids)), To: rng.Intn(4)}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, m := range moves {
		p.OnPlace(m.V, m.To)
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / flushes
	t.Logf("%.3f objects and %d B per one-placement flush on a %d-ID directory",
		got, (after.TotalAlloc-before.TotalAlloc)/flushes, ids)
	if got > ceiling {
		t.Errorf("one-placement flush: %.3f objects on average, want <= %.2f", got, ceiling)
	}
}

// TestDirectoryLiveBytes: what a directory keeps live after 250k one-move
// commits over 50k IDs, one in seven also retiring an ID — its two tiers,
// the journal's snapshots, and whatever dead snapshots, page tables, page
// nodes and leaves share an allocation chunk with live ones. IDs are drawn uniformly, and skewed
// toward the newest IDs (the most recently registered accounts). Measured
// at 0.57 and 0.81 MiB (0.87 and 1.13 MiB with 256-B leaves carved four to
// a chunk); each ceiling is about 1.2× its measurement.
func TestDirectoryLiveBytes(t *testing.T) {
	const (
		ids     = 50_000
		commits = 250_000
	)
	for _, tc := range []struct {
		name    string
		ceiling uint64
		draw    func(*rand.Rand) int
	}{
		{"uniform", 720_000, func(r *rand.Rand) int { return r.Intn(ids) }},
		{"recent", 1_030_000, func(r *rand.Rand) int {
			u := r.Float64()
			return ids - 1 - int(u*u*u*ids)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			mv, retire := make([]Move, 1), make([]graph.VertexID, 1)
			base := liveHeap()
			set := make([]Move, ids)
			for i := range set {
				set[i] = Move{V: graph.VertexID(i), To: i % 4}
			}
			d := New(Config{})
			mustCommit(t, d, Batch{Set: set, Shards: 4})
			set = nil
			for i := 0; i < commits; i++ {
				mv[0] = Move{V: graph.VertexID(tc.draw(rng)), To: rng.Intn(4)}
				b := Batch{Set: mv}
				if i%7 == 0 {
					retire[0] = graph.VertexID(tc.draw(rng))
					b.Retire = retire
				}
				if _, err := d.CommitBatch(b, false); err != nil {
					t.Fatal(err)
				}
			}
			got := liveHeap() - base
			runtime.KeepAlive(d)
			t.Logf("%s: %d B (%.2f MiB) live after %d commits", tc.name, got, float64(got)/(1<<20), commits)
			if got > tc.ceiling {
				t.Errorf("%s: %d B live, want <= %d B", tc.name, got, tc.ceiling)
			}
		})
	}
}

// TestLiveBytesWithPinnedSnapshot: one reader holds the snapshot of epoch
// 1,000 while the writer makes 250k one-move commits over 50k IDs, and the
// live heap is compared with the same run without the pin. The pinned view
// holds one superseded version of nearly every leaf and page node, with
// their chunk-mates, and the pinned snapshot's chunk-mates and their tables'
// — a neighbourhood of a few dozen epochs. Measured at 293,856 B (479,296 B
// with 256-B leaves); the ceiling is about 1.2× that. Were the chunks to
// chain epoch to epoch, the pin would keep every epoch's page table alive:
// 250k of them, about 95 MiB.
func TestLiveBytesWithPinnedSnapshot(t *testing.T) {
	const (
		ids     = 50_000
		commits = 250_000
		pinAt   = 1_000
		ceiling = 344 << 10
	)
	run := func(pin bool) uint64 {
		rng := rand.New(rand.NewSource(1))
		mv := make([]Move, 1)
		base := liveHeap()
		set := make([]Move, ids)
		for i := range set {
			set[i] = Move{V: graph.VertexID(i), To: i % 4}
		}
		d := New(Config{})
		mustCommit(t, d, Batch{Set: set, Shards: 4})
		set = nil
		var held *Snapshot
		for i := 0; i < commits; i++ {
			mv[0] = Move{V: graph.VertexID(rng.Intn(ids)), To: rng.Intn(4)}
			e, err := d.CommitBatch(Batch{Set: mv}, false)
			if err != nil {
				t.Fatal(err)
			}
			if pin && e == pinAt {
				held = d.Current()
			}
		}
		got := liveHeap() - base
		runtime.KeepAlive(d)
		runtime.KeepAlive(held)
		return got
	}
	unpinned, pinned := run(false), run(true)
	cost := int64(pinned) - int64(unpinned)
	t.Logf("%d B live unpinned, %d B pinned: the pin costs %d B", unpinned, pinned, cost)
	if cost > ceiling {
		t.Errorf("pinning epoch %d keeps %d B more live, want <= %d B", pinAt, cost, ceiling)
	}
}

// liveHeap returns the heap bytes still reachable after a collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
