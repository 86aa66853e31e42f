//go:build !race

package graph

import (
	"math/rand"
	"testing"
)

// TestAllocsResetRebuild is Reset's allocation ceiling: refilling a reset
// graph with the window it last held allocates nothing. Every slot gets the
// vertex it had, so every row's kept backing is long enough. The window's
// rows stay at or under rowIndexThreshold; a hub row past it rebuilds its
// position index, one map per hub row per window.
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
