package graph

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// blockAliasing returns a description of the first two owners of row
// storage in g that share memory, or "": every row in the capacity of
// g.out and g.in (rows a Reset emptied keep their block) and every block
// on a free list must own a disjoint range, and a free block must have its
// class's size.
func blockAliasing(g *Graph) string {
	type span struct {
		lo, hi uintptr
		owner  string
	}
	var spans []span
	add := func(b []halfEdge, owner string) {
		if cap(b) == 0 {
			return
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(b[:1])))
		spans = append(spans, span{lo, lo + uintptr(cap(b))*unsafe.Sizeof(halfEdge{}), owner})
	}
	for s, r := range g.out[:cap(g.out)] {
		add(r.e, fmt.Sprintf("out row of slot %d", s))
	}
	for s, r := range g.in[:cap(g.in)] {
		add(r.e, fmt.Sprintf("in row of slot %d", s))
	}
	for c := range g.blocks {
		for i, b := range g.blocks[c].free {
			if cap(b) != rowBlockCap<<c {
				return fmt.Sprintf("free block %d of class %d has capacity %d", i, c, cap(b))
			}
			add(b, fmt.Sprintf("free block %d of class %d", i, c))
		}
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			return fmt.Sprintf("%s and %s share memory", spans[i-1].owner, spans[i].owner)
		}
	}
	return ""
}

// TestRowBlocksNeverAlias drives rows up several block size classes —
// hub rows past rowIndexThreshold among them — while decay sweeps retire
// vertices and hand their slots to new ones (a decaying graph) and Reset
// empties a plain graph every few bursts. After every burst, sweep and
// Reset no two owners share row storage and each graph equals the map
// oracle, both rows of every vertex included.
func TestRowBlocksNeverAlias(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dg, pg := mustDecaying(t, 2), New()
		do, po := newDecayOracle(), newDecayOracle()
		check := func(step int, what string) {
			t.Helper()
			for _, c := range []struct {
				name string
				g    *Graph
				o    *decayOracle
			}{{"decaying", dg, do}, {"plain", pg, po}} {
				if d := blockAliasing(c.g); d != "" {
					t.Fatalf("seed %d step %d after %s, %s graph: %s", seed, step, what, c.name, d)
				}
				if d := c.o.mismatch(c.g); d != "" {
					t.Fatalf("seed %d step %d after %s, %s graph: %s", seed, step, what, c.name, d)
				}
			}
		}
		top := -1 // the highest class a row reached
		for step := 0; step < 30; step++ {
			// A drifting ID range, so earlier vertices go quiet and retire,
			// with three hubs, replaced every four bursts, whose rows climb
			// the classes.
			lo, hub := VertexID(step*40), VertexID(step/4*40)
			for i := 0; i < 400; i++ {
				u, v := lo+VertexID(rng.Intn(300)), lo+VertexID(rng.Intn(300))
				if rng.Intn(2) == 0 {
					u = hub + VertexID(rng.Intn(3))
				}
				if rng.Intn(2) == 0 {
					u, v = v, u
				}
				w := int64(1 + rng.Intn(3))
				for _, x := range []struct {
					g *Graph
					o *decayOracle
				}{{dg, do}, {pg, po}} {
					if err := x.g.AddInteraction(u, v, KindAccount, KindContract, w); err != nil {
						t.Fatal(err)
					}
					x.o.add(u, v, KindAccount, KindContract, w)
				}
			}
			check(step, "burst")
			for _, g := range []*Graph{dg, pg} {
				for s := range g.out {
					top = max(top, blockClass(cap(g.out[s].e)), blockClass(cap(g.in[s].e)))
				}
			}
			dg.DecaySweep(0.5, nil, nil)
			do.decay(0.5, 2)
			if step%4 == 3 {
				pg.Reset()
				po = newDecayOracle()
			}
			check(step, "sweep and reset")
		}
		if top < 4 {
			t.Fatalf("seed %d: no row grew past class %d", seed, top)
		}
	}
}
