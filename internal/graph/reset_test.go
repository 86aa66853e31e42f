package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// resetWindow is one window of a random interaction stream for the Reset
// tests: plain edges over IDs below maxID, self-loops, and a hub whose out
// and in rows grow past rowIndexThreshold.
func resetWindow(rng *rand.Rand, maxID VertexID) [][3]VertexID {
	var w [][3]VertexID // from, to, weight
	for i, n := 0, 50+rng.Intn(200); i < n; i++ {
		u, v := VertexID(rng.Int63n(int64(maxID))), VertexID(rng.Int63n(int64(maxID)))
		w = append(w, [3]VertexID{u, v, VertexID(1 + rng.Intn(3))})
	}
	for i, n := 0, rng.Intn(10); i < n; i++ {
		u := VertexID(rng.Int63n(int64(maxID)))
		w = append(w, [3]VertexID{u, u, 1})
	}
	if rng.Intn(2) == 0 {
		hub := VertexID(rng.Int63n(int64(maxID)))
		for i, n := 0, 2*rowIndexThreshold+rng.Intn(40); i < n; i++ {
			v := VertexID(rng.Int63n(int64(maxID)))
			if rng.Intn(2) == 0 {
				w = append(w, [3]VertexID{hub, v, 1})
			} else {
				w = append(w, [3]VertexID{v, hub, 1})
			}
		}
	}
	rng.Shuffle(len(w), func(i, j int) { w[i], w[j] = w[j], w[i] })
	return w
}

func resetKind(id VertexID) Kind {
	if id%3 == 0 {
		return KindContract
	}
	return KindAccount
}

func applyWindow(t *testing.T, g *Graph, w [][3]VertexID) {
	t.Helper()
	for _, x := range w {
		if err := g.AddInteraction(x[0], x[1], resetKind(x[0]), resetKind(x[1]), int64(x[2])); err != nil {
			t.Fatal(err)
		}
	}
}

// graphView is everything TestResetMatchesNew compares: vertices in
// iteration order, both rows of each in insertion order, the totals.
type graphView struct {
	vertices [][3]int64 // id, kind, weight
	out, in  [][][2]int64
	edges    int
	ew, vw   int64
}

func viewOf(g *Graph) graphView {
	var gv graphView
	g.Vertices(func(id VertexID, kind Kind, w int64) bool {
		gv.vertices = append(gv.vertices, [3]int64{int64(id), int64(kind), w})
		var out, in [][2]int64
		g.OutNeighbors(id, func(v VertexID, w int64) bool {
			out = append(out, [2]int64{int64(v), w})
			return true
		})
		g.InNeighbors(id, func(u VertexID, w int64) bool {
			in = append(in, [2]int64{int64(u), w})
			return true
		})
		gv.out, gv.in = append(gv.out, out), append(gv.in, in)
		return true
	})
	gv.edges, gv.ew, gv.vw = g.EdgeCount(), g.TotalEdgeWeight(), totalVertexWeight(g)
	return gv
}

// TestResetMatchesNew replays random windows into one graph Reset between
// windows and into a New graph per window: every observable, and the CSR,
// must agree. The windows' ID ranges shrink and grow, so later windows
// reach IDs beyond an earlier window's MaxID and reuse slots whose rows
// (hub rows past rowIndexThreshold among them) held other vertices.
func TestResetMatchesNew(t *testing.T) {
	bounds := []VertexID{40, 400, 25, 1200, 60, 900, 30}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reused := New()
		var rb CSRBuilder
		for j, maxID := range bounds {
			w := resetWindow(rng, maxID)
			reused.Reset()
			applyWindow(t, reused, w)
			fresh := New()
			applyWindow(t, fresh, w)
			if got, want := viewOf(reused), viewOf(fresh); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d window %d: reset graph differs from a new one", seed, j)
			}
			if got, want := rb.Build(reused), NewCSR(fresh); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d window %d: CSR of the reset graph differs", seed, j)
			}
		}
	}
}

// TestResetRefusesDecayingGraph: a decay schedule cannot be emptied, so
// Reset panics on a graph built by NewDecaying.
func TestResetRefusesDecayingGraph(t *testing.T) {
	g := mustDecaying(t, 4)
	mustAdd(t, g, 1, 2, 1)
	defer func() {
		if recover() == nil {
			t.Error("Reset on a decaying graph did not panic")
		}
	}()
	g.Reset()
}
