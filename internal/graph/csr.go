package graph

import (
	"fmt"
	"slices"
)

// CSR is a compact, immutable, undirected view of a Graph in compressed
// sparse row form. It is the representation consumed by the partitioners:
// directed edges u->v and v->u are merged into a single undirected edge whose
// weight is the sum of both directions.
//
// Vertices are renumbered to dense local indices [0, N). IDs maps a local
// index back to the original VertexID. There is deliberately no dense
// ID->local table on the CSR itself: such a table is O(MaxID) — the
// historical ID space — and filling it made every build pay for every ID
// ever seen even when the live graph had shrunk to a handful of vertices.
// The builder keeps one reusable scratch table instead (see CSRBuilder).
type CSR struct {
	// IDs maps local index -> original vertex ID, sorted ascending.
	IDs []VertexID
	// VW holds per-vertex dynamic weights (interaction counts).
	VW []int64
	// XAdj is the CSR row index: the neighbours of local vertex i are
	// Adj[XAdj[i]:XAdj[i+1]] with weights AdjW at the same positions.
	XAdj []int32
	// Adj holds neighbour local indices, sorted ascending within a row.
	Adj []int32
	// AdjW holds undirected edge weights, parallel to Adj.
	AdjW []int64

	// TotalVW is the sum of VW.
	TotalVW int64
	// TotalEW is the sum of undirected edge weights, counting each
	// undirected edge once.
	TotalEW int64
	// NumEdges is the number of undirected edges (each counted once).
	NumEdges int
}

// CSRBuilder builds CSRs while reusing scratch across builds: the merge
// buffers for the intermediate half edges, and the dense ID->local index
// used to resolve neighbour IDs during the gather pass. The index is the
// load-bearing piece of the O(live) build contract: it spans the graph's
// dense ID space but is initialised (to -1) only when it grows, and after
// every build it is wiped back to -1 by walking the *live* IDs list — so a
// build does O(live vertices + live edges) index work however large the
// historical ID space has become, where the old per-CSR table paid an
// O(MaxID) fill every build. The zero value is ready to use. A builder is
// not safe for concurrent use; the CSRs it returns never alias builder
// scratch and are independent of the builder and of each other.
type CSRBuilder struct {
	halfTo []int32 // merged adjacency targets, grouped by source local index
	halfW  []int64 // weights parallel to halfTo
	fill   []int32 // per-row write cursor for the scatter pass
	// index is the reusable dense ID->local scratch table. Invariant
	// between builds: every entry is -1 (established at growth, restored by
	// the post-build clear walk).
	index []int32
}

// NewCSR builds the undirected CSR view of g. The result does not alias g;
// later mutations of g are not reflected. Callers building CSRs repeatedly
// should hold a CSRBuilder and call its Build method instead — a one-shot
// builder pays the full scratch-index initialisation for nothing.
func NewCSR(g *Graph) *CSR {
	return new(CSRBuilder).Build(g)
}

// Build constructs the undirected CSR view of g.
//
// Rows come out sorted by neighbour index without any comparison sort: the
// merged adjacency is first gathered per source vertex (ascending), then
// scattered to its target rows — each row receives its sources in ascending
// order, a counting-sort over edge targets.
func (b *CSRBuilder) Build(g *Graph) *CSR {
	n := g.VertexCount()
	c := &CSR{
		IDs:  g.VertexIDs(),
		VW:   make([]int64, n),
		XAdj: make([]int32, n+1),
	}
	// Grow the scratch index to the graph's ID bound. Only the grown region
	// pays a -1 fill, once per high-water mark — not per build.
	if m := int(g.MaxID()); len(b.index) < m {
		grown := append(b.index, make([]int32, m-len(b.index))...)
		for i := len(b.index); i < len(grown); i++ {
			grown[i] = -1
		}
		b.index = grown
	}
	index := b.index
	for i, id := range c.IDs {
		index[id] = int32(i)
		w := g.weights[g.slotOf(id)]
		c.VW[i] = w
		c.TotalVW += w
	}

	// Gather pass: the merged (undirected, deduplicated) adjacency of every
	// vertex, in ascending vertex order, into the reusable half-edge
	// buffers. XAdj doubles as the offsets of this grouping because the
	// merged half adjacency of a vertex is exactly its final CSR row.
	halfTo, halfW := b.halfTo[:0], b.halfW[:0]
	for i := 0; i < n; i++ {
		s := g.slotOf(c.IDs[i])
		ro, ri := &g.out[s], &g.in[s]
		for p := range ro.e {
			v, w := ro.e[p].to, ro.e[p].w
			if q := ri.find(v); q >= 0 {
				w += ri.e[q].w
			}
			halfTo = append(halfTo, index[v])
			halfW = append(halfW, w)
		}
		for p := range ri.e {
			v := ri.e[p].to
			if ro.find(v) >= 0 {
				continue
			}
			halfTo = append(halfTo, index[v])
			halfW = append(halfW, ri.e[p].w)
		}
		c.XAdj[i+1] = int32(len(halfTo))
	}
	b.halfTo, b.halfW = halfTo, halfW

	// Scatter pass: write each half edge into its target's row. Sources are
	// visited in ascending order, so every row is born sorted.
	if cap(b.fill) < n {
		b.fill = make([]int32, n)
	}
	fill := b.fill[:n]
	copy(fill, c.XAdj[:n])
	c.Adj = make([]int32, len(halfTo))
	c.AdjW = make([]int64, len(halfTo))
	for i := int32(0); int(i) < n; i++ {
		for p := c.XAdj[i]; p < c.XAdj[i+1]; p++ {
			j := halfTo[p]
			pos := fill[j]
			c.Adj[pos] = i
			c.AdjW[pos] = halfW[p]
			fill[j]++
			if i < j { // count each undirected edge once
				c.TotalEW += halfW[p]
				c.NumEdges++
			}
		}
	}

	// Restore the scratch-index invariant by walking the live IDs — an
	// O(live) clear in place of the old O(MaxID) per-build fill.
	for _, id := range c.IDs {
		index[id] = -1
	}
	return c
}

// N returns the number of vertices.
func (c *CSR) N() int { return len(c.IDs) }

// Row returns the neighbour indices and weights of local vertex i. The
// returned slices alias the CSR and must not be modified.
func (c *CSR) Row(i int32) ([]int32, []int64) {
	lo, hi := c.XAdj[i], c.XAdj[i+1]
	return c.Adj[lo:hi], c.AdjW[lo:hi]
}

// Validate checks structural invariants: symmetric adjacency, consistent
// weights, sorted rows and matching totals. It is used by tests and is cheap
// enough to call on moderately sized graphs.
func (c *CSR) Validate() error {
	n := c.N()
	if len(c.VW) != n || len(c.XAdj) != n+1 {
		return fmt.Errorf("csr: inconsistent lengths (n=%d, vw=%d, xadj=%d)", n, len(c.VW), len(c.XAdj))
	}
	if int(c.XAdj[n]) != len(c.Adj) || len(c.Adj) != len(c.AdjW) {
		return fmt.Errorf("csr: adjacency length mismatch")
	}
	for i := 1; i < n; i++ {
		if c.IDs[i-1] >= c.IDs[i] {
			return fmt.Errorf("csr: IDs not strictly ascending at local %d", i)
		}
	}
	var ew int64
	var edges int
	for i := int32(0); int(i) < n; i++ {
		adj, w := c.Row(i)
		for p, j := range adj {
			if j < 0 || int(j) >= n {
				return fmt.Errorf("csr: vertex %d has out-of-range neighbour %d", i, j)
			}
			if j == i {
				return fmt.Errorf("csr: vertex %d has a self-loop", i)
			}
			if p > 0 && adj[p-1] >= j {
				return fmt.Errorf("csr: row %d not strictly sorted", i)
			}
			// Symmetry: j must list i with the same weight.
			radj, rw := c.Row(j)
			pos, ok := slices.BinarySearch(radj, i)
			if !ok {
				return fmt.Errorf("csr: edge %d-%d not symmetric", i, j)
			}
			if rw[pos] != w[p] {
				return fmt.Errorf("csr: edge %d-%d weight mismatch (%d vs %d)", i, j, w[p], rw[pos])
			}
			if i < j {
				ew += w[p]
				edges++
			}
		}
	}
	if ew != c.TotalEW {
		return fmt.Errorf("csr: TotalEW=%d, recomputed %d", c.TotalEW, ew)
	}
	if edges != c.NumEdges {
		return fmt.Errorf("csr: NumEdges=%d, recomputed %d", c.NumEdges, edges)
	}
	var vw int64
	for _, w := range c.VW {
		vw += w
	}
	if vw != c.TotalVW {
		return fmt.Errorf("csr: TotalVW=%d, recomputed %d", c.TotalVW, vw)
	}
	return nil
}
