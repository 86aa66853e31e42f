//go:build !race

package directory

import (
	"runtime"
	"testing"

	"ethpart/internal/graph"
)

// Allocation ceiling (the race detector instruments allocations, hence the
// build tag): what a commit that moves one vertex between tiers costs in
// heap bytes, pinned so it cannot grow back into a function of how much has
// ever been retired. DESIGN §5, "Two tiers".

// TestAllocsTierMoveIndependentOfColdCount: a retire-one, a rehydrate-one, a
// SetCold-one and a Promote-one commit each copy the one or two pages they
// write plus those tiers' page tables, whether the cold tier holds 10k or
// 200k entries. Both directories span the same ID range, so their page
// tables (8 B per 1024 IDs of range — the one term that is not constant)
// are equally long and the two measurements must agree.
func TestAllocsTierMoveIndependentOfColdCount(t *testing.T) {
	const (
		universe = 400_000 // odd IDs stay hot, so no page ever empties
		v        = graph.VertexID(200_000)
		rounds   = 20
		ceiling  = 20 << 10
	)
	commitBytes := func(d *Directory, b Batch) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := d.Commit(b); err != nil {
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
			mustCommit(t, d, Batch{Retire: []graph.VertexID{v}})
			sum["setcold"] += commitBytes(d, Batch{SetCold: []Move{{V: v, To: r % 4}}})
		}
		if st := d.Stats(); st.Cold != len(retire) || st.Promoted != rounds || st.Rehydrated != rounds {
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
		if s > ceiling || l > ceiling {
			t.Errorf("%s-one commit: %d B at 10k cold, %d B at 200k cold, want < %d B", kind, s, l, ceiling)
		}
		if lo, hi := min(s, l), max(s, l); hi-lo > lo/10 {
			t.Errorf("%s-one commit: %d B at 10k cold vs %d B at 200k cold, want within 10%%", kind, s, l)
		}
	}
}
