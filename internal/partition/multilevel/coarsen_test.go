package multilevel

import (
	"math/rand"
	"reflect"
	"testing"
)

// coarsenAll is the store-everything ladder coarsen replaced, kept as the
// oracle: every level's graph in a, contracted once.
func coarsenAll(a *arena, g *mlGraph, rng *rand.Rand, maxVW int64) []level {
	var ladder []level
	cur := g
	for cur.n() > coarsenTo {
		cmap, nCoarse := heavyEdgeMatching(a, cur, rng, maxVW)
		if float64(nCoarse) > 0.95*float64(cur.n()) {
			break
		}
		next := contract(a, a, cur, cmap, nCoarse)
		ladder = append(ladder, level{fine: cur, cmap: cmap})
		cur = next
	}
	return append(ladder, level{fine: cur})
}

// TestLadderMatchesStoreEverything coarsens the digest graphs both ways
// from one seed: the ladders must hold the same cmaps, the stored levels
// the oracle's graphs, and every odd level below the coarsest no graph —
// which rebuild, in bisect's order, re-contracts into the oracle's.
func TestLadderMatchesStoreEverything(t *testing.T) {
	for _, dg := range digestGraphs() {
		g := fromCSR(new(arena), dg.csr)
		maxVW := max(g.totalVW/16, 4)
		want := coarsenAll(newArena(g.n()), g, rand.New(rand.NewSource(7)), maxVW)
		a := newArena(g.n())
		got := coarsen(a, g, rand.New(rand.NewSource(7)), maxVW)
		if len(got) != len(want) {
			t.Fatalf("%s: %d levels, oracle %d", dg.name, len(got), len(want))
		}
		if len(got) < 3 {
			t.Fatalf("%s: only %d levels; the test needs a rebuilt odd level", dg.name, len(got))
		}
		coarsest := len(got) - 1
		for i := coarsest; i >= 0; i-- {
			if !reflect.DeepEqual(got[i].cmap, want[i].cmap) {
				t.Fatalf("%s level %d: cmap differs", dg.name, i)
			}
			fine := got[i].fine
			if stored := i%2 == 0 || i == coarsest; stored != (fine != nil) {
				t.Fatalf("%s level %d: graph stored = %v", dg.name, i, fine != nil)
			}
			if fine == nil {
				fine = rebuild(a, got, i)
			}
			if !reflect.DeepEqual(*fine, *want[i].fine) {
				t.Fatalf("%s level %d: graph differs from the oracle's", dg.name, i)
			}
			a.odd.release(arenaMark{}) // as bisect drops each level once projected
		}
	}
}
