package graph

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// mirrorMismatch checks the invariant AddInteraction's created-edge
// shortcut rests on: the out and in rows are exact mirrors. Every live
// out entry u→v has exactly one twin, u in v's in row, with the same
// weight and touch epoch, and the reverse; no row holds a neighbour twice;
// a free slot's rows are empty. It returns "" when all of that holds.
func mirrorMismatch(g *Graph) string {
	type edge struct{ u, v VertexID }
	type copyOf struct {
		w     int64
		touch uint32
	}
	outs := make(map[edge]copyOf)
	for s := range g.ids {
		if g.kinds[s] == 0 {
			if len(g.out[s].e) != 0 || len(g.in[s].e) != 0 {
				return fmt.Sprintf("free slot %d keeps %d out and %d in entries", s, len(g.out[s].e), len(g.in[s].e))
			}
			continue
		}
		u := g.ids[s]
		for _, h := range g.out[s].e {
			k := edge{u, h.to}
			if _, dup := outs[k]; dup {
				return fmt.Sprintf("out row of %d holds %d twice", u, h.to)
			}
			outs[k] = copyOf{h.w, h.touch}
		}
	}
	ins := 0
	for s := range g.ids {
		if g.kinds[s] == 0 {
			continue
		}
		v := g.ids[s]
		seen := make(map[VertexID]bool, len(g.in[s].e))
		for _, h := range g.in[s].e {
			if seen[h.to] {
				return fmt.Sprintf("in row of %d holds %d twice", v, h.to)
			}
			seen[h.to] = true
			want, ok := outs[edge{h.to, v}]
			if !ok {
				return fmt.Sprintf("in entry %d→%d has no out twin", h.to, v)
			}
			if want != (copyOf{h.w, h.touch}) {
				return fmt.Sprintf("edge %d→%d: out copy %+v, in copy %+v", h.to, v, want, copyOf{h.w, h.touch})
			}
			ins++
		}
	}
	if ins != len(outs) {
		return fmt.Sprintf("%d out entries, %d in entries", len(outs), ins)
	}
	return ""
}

// TestPropertyRowsMirror drives random bursts through a decaying graph —
// sweeps that rescale and expire edges, retire vertices and hand their
// slots and row blocks to new ones — and through a plain graph emptied by
// Reset between bursts, requiring the rows to stay exact mirrors after
// every step.
func TestPropertyRowsMirror(t *testing.T) {
	f := func(seed int64, nRaw, rounds, fRaw, aRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%40) + 2
		factor := 0.3 + 0.7*float64(fRaw%100)/100
		dg := mustDecaying(t, uint32(aRaw%4)+1)
		pg := New()
		for round := 0; round < int(rounds%10)+2; round++ {
			// A drifting window of the ID space, so some vertices go quiet
			// long enough to retire and later IDs reuse their slots.
			lo := round * n / 2
			for i := 0; i < 1+rng.Intn(60); i++ {
				from := VertexID(lo + rng.Intn(n))
				to := VertexID(lo + rng.Intn(n))
				w := int64(1 + rng.Intn(3))
				for _, g := range []*Graph{dg, pg} {
					if err := g.AddInteraction(from, to, KindAccount, KindContract, w); err != nil {
						t.Errorf("AddInteraction: %v", err)
						return false
					}
				}
			}
			for name, g := range map[string]*Graph{"decaying": dg, "plain": pg} {
				if d := mirrorMismatch(g); d != "" {
					t.Errorf("round %d, %s graph after a burst: %s", round, name, d)
					return false
				}
			}
			dg.DecaySweep(factor, nil, nil)
			if d := mirrorMismatch(dg); d != "" {
				t.Errorf("round %d, after a sweep: %s", round, d)
				return false
			}
			if rng.Intn(3) == 0 {
				pg.Reset()
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
