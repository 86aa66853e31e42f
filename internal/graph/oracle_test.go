package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// The graph keeps no vertex-weight total and answers no point queries on
// weights or degrees; the tests recompute them from its public iterators.

// vertexWeight returns id's weight as Vertices reports it, or zero when id
// is absent.
func vertexWeight(g *Graph, id VertexID) int64 {
	var w int64
	g.Vertices(func(v VertexID, _ Kind, vw int64) bool {
		if v == id {
			w = vw
			return false
		}
		return true
	})
	return w
}

// totalVertexWeight sums the weights Vertices reports.
func totalVertexWeight(g *Graph) int64 {
	var total int64
	g.Vertices(func(_ VertexID, _ Kind, w int64) bool {
		total += w
		return true
	})
	return total
}

// edgeWeight returns the weight of the directed edge u->v as OutNeighbors
// reports it, or zero when the edge is absent.
func edgeWeight(g *Graph, u, v VertexID) int64 {
	var w int64
	g.OutNeighbors(u, func(to VertexID, ew int64) bool {
		if to == v {
			w = ew
			return false
		}
		return true
	})
	return w
}

// degree counts u's distinct undirected neighbours.
func degree(g *Graph, u VertexID) int {
	n := 0
	g.Neighbors(u, func(VertexID, int64) bool {
		n++
		return true
	})
	return n
}

// oracleGraph is the retained map-based reference implementation of the
// graph contract — the storage the dense slice-backed Graph replaced. The
// property tests below drive both implementations with the same randomized
// interaction streams and require them to agree on every observable.
type oracleGraph struct {
	kinds   map[VertexID]Kind
	weights map[VertexID]int64
	out     map[VertexID]map[VertexID]int64
	in      map[VertexID]map[VertexID]int64

	numEdges        int
	totalEdgeWeight int64
	totalVertWeight int64
}

func newOracle() *oracleGraph {
	return &oracleGraph{
		kinds:   make(map[VertexID]Kind),
		weights: make(map[VertexID]int64),
		out:     make(map[VertexID]map[VertexID]int64),
		in:      make(map[VertexID]map[VertexID]int64),
	}
}

func (o *oracleGraph) addInteraction(from, to VertexID, fromKind, toKind Kind, w int64) {
	if _, ok := o.kinds[from]; !ok {
		o.kinds[from] = fromKind
	}
	if _, ok := o.kinds[to]; !ok {
		o.kinds[to] = toKind
	}
	o.weights[from] += w
	o.totalVertWeight += w
	if from == to {
		return
	}
	o.weights[to] += w
	o.totalVertWeight += w
	m := o.out[from]
	if m == nil {
		m = make(map[VertexID]int64)
		o.out[from] = m
	}
	if _, existed := m[to]; !existed {
		o.numEdges++
	}
	m[to] += w
	r := o.in[to]
	if r == nil {
		r = make(map[VertexID]int64)
		o.in[to] = r
	}
	r[from] += w
	o.totalEdgeWeight += w
}

// neighbors returns the merged undirected adjacency of u with combined
// weights, the contract of Graph.Neighbors.
func (o *oracleGraph) neighbors(u VertexID) map[VertexID]int64 {
	merged := make(map[VertexID]int64)
	for v, w := range o.out[u] {
		merged[v] += w
	}
	for v, w := range o.in[u] {
		merged[v] += w
	}
	return merged
}

// interactionStream is a reproducible random stream of interactions over
// the IDs [0, n).
func interactionStream(seed int64, n, m int) []struct {
	from, to VertexID
	fk, tk   Kind
	w        int64
} {
	rng := rand.New(rand.NewSource(seed))
	pick := func() (VertexID, Kind) {
		raw := rng.Intn(n)
		id := VertexID(raw)
		kind := KindAccount
		if raw%3 == 0 {
			kind = KindContract
		}
		return id, kind
	}
	stream := make([]struct {
		from, to VertexID
		fk, tk   Kind
		w        int64
	}, m)
	for i := range stream {
		stream[i].from, stream[i].fk = pick()
		stream[i].to, stream[i].tk = pick()
		stream[i].w = int64(1 + rng.Intn(5))
	}
	return stream
}

// refuses reports whether g rejects an interaction with an endpoint at or
// above MaxVertexID and is left as it was: no new vertex, weight or edge
// from either endpoint.
func refuses(g *Graph, from, to VertexID, fk, tk Kind, w int64) bool {
	n, e, vw, ew := g.VertexCount(), g.EdgeCount(), totalVertexWeight(g), g.TotalEdgeWeight()
	had := g.HasVertex(from) || g.HasVertex(to)
	return g.AddInteraction(from, to, fk, tk, w) != nil &&
		g.VertexCount() == n && g.EdgeCount() == e &&
		totalVertexWeight(g) == vw && g.TotalEdgeWeight() == ew &&
		had == (g.HasVertex(from) || g.HasVertex(to))
}

// refusesOutOfRange moves one endpoint of the i-th stream entry to or past
// MaxVertexID, alternating sides, and reports whether g refuses it.
func refusesOutOfRange(g *Graph, i int, from, to VertexID, fk, tk Kind, w int64) bool {
	if i%2 == 0 {
		return refuses(g, from, MaxVertexID+to, fk, tk, w)
	}
	return refuses(g, VertexID(1)<<40+from, to, fk, tk, w)
}

// TestPropertyDenseMatchesOracle replays random interaction streams into
// the dense graph and the map-based oracle and compares every observable:
// vertex kinds and weights, directed edge weights, merged neighbours,
// degrees, totals, and a clean, consistent CSR.
func TestPropertyDenseMatchesOracle(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%60) + 2
		m := int(mRaw%150) + 1
		g := New()
		o := newOracle()
		for i, it := range interactionStream(seed, n, m) {
			if i%7 == 0 && !refusesOutOfRange(g, i/7, it.from, it.to, it.fk, it.tk, it.w) {
				t.Errorf("interaction %d: an out-of-range endpoint was not refused cleanly", i)
				return false
			}
			if err := g.AddInteraction(it.from, it.to, it.fk, it.tk, it.w); err != nil {
				t.Fatalf("AddInteraction: %v", err)
			}
			o.addInteraction(it.from, it.to, it.fk, it.tk, it.w)
		}

		if g.VertexCount() != len(o.kinds) {
			t.Errorf("VertexCount = %d, oracle %d", g.VertexCount(), len(o.kinds))
			return false
		}
		if g.EdgeCount() != o.numEdges {
			t.Errorf("EdgeCount = %d, oracle %d", g.EdgeCount(), o.numEdges)
			return false
		}
		if g.TotalEdgeWeight() != o.totalEdgeWeight || totalVertexWeight(g) != o.totalVertWeight {
			t.Errorf("totals (%d,%d), oracle (%d,%d)", g.TotalEdgeWeight(),
				totalVertexWeight(g), o.totalEdgeWeight, o.totalVertWeight)
			return false
		}

		for id, kind := range o.kinds {
			if g.VertexKind(id) != kind {
				t.Errorf("VertexKind(%d) = %v, oracle %v", id, g.VertexKind(id), kind)
				return false
			}
			if vertexWeight(g, id) != o.weights[id] {
				t.Errorf("VertexWeight(%d) = %d, oracle %d", id, vertexWeight(g, id), o.weights[id])
				return false
			}
			// Directed edge weights.
			for v, w := range o.out[id] {
				if edgeWeight(g, id, v) != w {
					t.Errorf("EdgeWeight(%d,%d) = %d, oracle %d", id, v, edgeWeight(g, id, v), w)
					return false
				}
			}
			// Merged neighbours and degree.
			want := o.neighbors(id)
			got := make(map[VertexID]int64)
			g.Neighbors(id, func(v VertexID, w int64) bool {
				got[v] = w
				return true
			})
			if len(got) != len(want) || degree(g, id) != len(want) {
				t.Errorf("Neighbors(%d): %d entries (Degree %d), oracle %d",
					id, len(got), degree(g, id), len(want))
				return false
			}
			for v, w := range want {
				if got[v] != w {
					t.Errorf("Neighbors(%d)[%d] = %d, oracle %d", id, v, got[v], w)
					return false
				}
			}
		}

		// The CSR view must be structurally clean and agree with the oracle
		// on vertex count and total undirected weight.
		csr := NewCSR(g)
		if err := csr.Validate(); err != nil {
			t.Errorf("CSR validate: %v", err)
			return false
		}
		if csr.N() != len(o.kinds) {
			t.Errorf("CSR.N = %d, oracle %d", csr.N(), len(o.kinds))
			return false
		}
		if csr.TotalEW != o.totalEdgeWeight {
			t.Errorf("CSR.TotalEW = %d, oracle %d", csr.TotalEW, o.totalEdgeWeight)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
