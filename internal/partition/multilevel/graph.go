// Package multilevel implements a METIS-style multilevel graph partitioner:
// the graph is repeatedly coarsened by heavy-edge matching, the coarsest
// graph is bisected by greedy graph growing, and the bisection is projected
// back through the levels with Fiduccia–Mattheyses boundary refinement at
// each step. k-way partitions are produced by recursive bisection with
// proportional weight targets, the structure of the original pmetis
// algorithm (Karypis & Kumar, SIAM J. Sci. Comput. 1998).
//
// The package stands in for the METIS binary the paper shells out to; it
// optimizes the same objective (edge-cut under a balance constraint) with
// the same three-phase structure.
//
// The algorithm's parameters — coarsening floor, number of initial trials,
// FM passes per level, bisection imbalance — are the constants at the top
// of multilevel.go: every pinned number in the repository was produced with
// them. Config carries only the seed and the two ablation switches.
//
// A partition is a pure function of the graph, k and the Config, bit for
// bit: a call runs on its caller's goroutine and makes every random draw in
// one fixed order. The order of draws, the heap's comparison rules and the
// trial pick order are part of that output; DESIGN §4 spells the contract
// out and testdata/partition_digests.json pins it. A Partitioner is only
// its Config: scratch memory (arena.go) is per call, created inside
// Partition, shared by the call's bisections in turn and gone when it
// returns, so one Partitioner serves any number of concurrent callers.
package multilevel

import (
	"ethpart/internal/graph"
)

// mlGraph is the internal working representation: CSR adjacency plus vertex
// weights, without the ID mapping of graph.CSR (recursion tracks original
// indices separately).
//
// Edge weights are int32 on every level: Partition refuses a CSR whose
// total edge weight exceeds MaxTotalEdgeWeight, and no level's weights,
// degrees or gains can exceed that total (see its proof).
type mlGraph struct {
	xadj    []int32
	adj     []int32
	adjw    []int32
	vw      []int64
	totalVW int64
}

func (g *mlGraph) n() int { return len(g.vw) }

func (g *mlGraph) row(v int32) ([]int32, []int32) {
	lo, hi := g.xadj[v], g.xadj[v+1]
	return g.adj[lo:hi], g.adjw[lo:hi]
}

// cutOf returns the weighted edge-cut of a two-way partition.
func (g *mlGraph) cutOf(side []uint8) int64 {
	var cut int64
	for v := int32(0); int(v) < g.n(); v++ {
		adj, w := g.row(v)
		for p, u := range adj {
			if u > v && side[u] != side[v] {
				cut += int64(w[p])
			}
		}
	}
	return cut
}

// fromCSR converts a graph.CSR into the working representation, narrowing
// its edge weights to int32 (the caller has checked c.TotalEW against
// MaxTotalEdgeWeight). Every vertex gets weight one: the paper's METIS
// configuration balances vertex counts.
func fromCSR(a *arena, c *graph.CSR) *mlGraph {
	n := c.N()
	g := &mlGraph{
		xadj:    c.XAdj,
		adj:     c.Adj,
		adjw:    a.i32.alloc(len(c.AdjW)),
		vw:      a.i64.filled(n, 1),
		totalVW: int64(n),
	}
	for p, w := range c.AdjW {
		g.adjw[p] = int32(w)
	}
	return g
}

// split extracts the two induced subgraphs of a bisection. vmap carries the
// original vertex index of every local vertex; the returned maps do the
// same for the subgraphs. Cross-side edges are dropped — they are already
// paid for in the recursive-bisection objective.
//
// The subgraphs are allocated in keep, each adjacency at the exact length
// a counting pass finds; the renumbering table comes from scratch.
func split(keep, scratch *arena, g *mlGraph, side []uint8, vmap []int32) (sub [2]*mlGraph, submap [2][]int32) {
	n := g.n()
	defer scratch.tmp.release(scratch.tmp.mark())
	local := scratch.tmp.alloc(n)
	var counts, edges [2]int
	for v := int32(0); int(v) < n; v++ {
		s := side[v]
		local[v] = int32(counts[s])
		counts[s]++
		adj, _ := g.row(v)
		for _, u := range adj {
			if side[u] == s {
				edges[s]++
			}
		}
	}
	var fill [2]int32
	for s := 0; s < 2; s++ {
		sub[s] = &mlGraph{
			xadj: keep.i32.alloc(counts[s] + 1),
			adj:  keep.i32.alloc(edges[s]),
			adjw: keep.i32.alloc(edges[s]),
			vw:   keep.i64.alloc(counts[s]),
		}
		sub[s].xadj[0] = 0
		submap[s] = keep.i32.alloc(counts[s])
	}
	for v := int32(0); int(v) < n; v++ {
		s := side[v]
		sg := sub[s]
		adj, w := g.row(v)
		for p, u := range adj {
			if side[u] == s {
				sg.adj[fill[s]] = local[u]
				sg.adjw[fill[s]] = w[p]
				fill[s]++
			}
		}
		lv := local[v]
		sg.xadj[lv+1] = fill[s]
		sg.vw[lv] = g.vw[v]
		sg.totalVW += g.vw[v]
		submap[s][lv] = vmap[v]
	}
	return sub, submap
}
