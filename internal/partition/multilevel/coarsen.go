package multilevel

import (
	"math/rand"
)

// level is one rung of the coarsening ladder: the fine graph and the map
// from its vertices to the coarse graph built from it.
type level struct {
	fine *mlGraph
	cmap []int32
}

// heavyEdgeMatching computes a matching that prefers heavy edges: vertices
// are visited in random order and an unmatched vertex pairs with its
// unmatched neighbour of maximum edge weight. maxVW caps the combined
// weight of a pair so hubs do not snowball into unsplittable supernodes.
// With random set, the first eligible neighbour in the (shuffled) visit is
// taken regardless of weight — the random-matching ablation.
// It returns the fine→coarse map and the coarse vertex count.
//
// The visit order is an inside-out Fisher–Yates shuffle drawing
// rng.Intn(i+1) for i = 0..n-1 — the draws, and therefore the permutation,
// of rand.Perm(n), which this replaces so the order lives in the arena as
// int32 instead of a fresh []int per level.
func heavyEdgeMatching(a *arena, g *mlGraph, rng *rand.Rand, maxVW int64, random bool) (cmap []int32, nCoarse int) {
	n := g.n()
	cmap = a.i32.filled(n, -1)
	defer a.tmp.release(a.tmp.mark())
	order := a.tmp.alloc(n)
	for i := range order {
		j := rng.Intn(i + 1)
		order[i] = order[j]
		order[j] = int32(i)
	}
	next := int32(0)
	for _, v := range order {
		if cmap[v] >= 0 {
			continue
		}
		adj, w := g.row(v)
		var best, bestW int32 = -1, -1
		for p, u := range adj {
			if cmap[u] >= 0 || u == v {
				continue
			}
			if g.vw[v]+g.vw[u] > maxVW {
				continue
			}
			if random {
				best = u
				break
			}
			if w[p] > bestW {
				best, bestW = u, w[p]
			}
		}
		cmap[v] = next
		if best >= 0 {
			cmap[best] = next
		}
		next++
	}
	return cmap, int(next)
}

// contract builds the coarse graph induced by cmap: matched pairs merge
// their vertex weights, parallel edges merge their weights, and edges
// internal to a pair disappear.
func contract(a *arena, g *mlGraph, cmap []int32, nCoarse int) *mlGraph {
	coarse := &mlGraph{
		xadj:    a.i32.alloc(nCoarse + 1),
		vw:      a.i64.zeroed(nCoarse),
		totalVW: g.totalVW,
	}
	// The coarse adjacency is at most as long as the fine one: targets and
	// weights are filled in place in the two halves of one buffer, then the
	// weights are moved down behind the targets and the buffer is shrunk to
	// its exact length.
	m := len(g.adj)
	buf := a.i32.alloc(2 * m)
	adj, adjw := buf[:m], buf[m:]
	defer a.tmp.release(a.tmp.mark())
	// first and second list the (one or two) fine vertices of each coarse
	// vertex, in ascending fine order.
	first := a.tmp.filled(nCoarse, -1)
	second := a.tmp.filled(nCoarse, -1)
	// mark[u] records the coarse vertex currently accumulating edge u,
	// pos[u] where in the adjacency its weight lives. Deterministic (fill
	// order follows member iteration) and allocation-free per coarse vertex.
	mark := a.tmp.filled(nCoarse, -1)
	pos := a.tmp.alloc(nCoarse)
	for v := int32(0); int(v) < g.n(); v++ {
		c := cmap[v]
		if first[c] < 0 {
			first[c] = v
		} else {
			second[c] = v
		}
		coarse.vw[c] += g.vw[v]
	}
	used := int32(0)
	coarse.xadj[0] = 0
	for c := int32(0); int(c) < nCoarse; c++ {
		for _, v := range [2]int32{first[c], second[c]} {
			if v < 0 {
				continue
			}
			fadj, w := g.row(v)
			for p, u := range fadj {
				cu := cmap[u]
				if cu == c {
					continue
				}
				if mark[cu] != c {
					mark[cu] = c
					pos[cu] = used
					adj[used] = cu
					adjw[used] = w[p]
					used++
				} else {
					adjw[pos[cu]] += w[p]
				}
			}
		}
		coarse.xadj[c+1] = used
	}
	copy(buf[used:], adjw[:used])
	buf = a.i32.shrink(buf, 2*int(used))
	coarse.adj, coarse.adjw = buf[:used:used], buf[used:]
	return coarse
}

// coarsen builds the ladder of successively coarser graphs, stopping when
// the graph is small enough (coarsenTo) or matching stops making progress.
func coarsen(a *arena, g *mlGraph, rng *rand.Rand, maxVW int64, random bool) []level {
	var ladder []level
	cur := g
	for cur.n() > coarsenTo {
		cmap, nCoarse := heavyEdgeMatching(a, cur, rng, maxVW, random)
		if float64(nCoarse) > 0.95*float64(cur.n()) {
			break // diminishing returns; stop coarsening
		}
		next := contract(a, cur, cmap, nCoarse)
		ladder = append(ladder, level{fine: cur, cmap: cmap})
		cur = next
	}
	ladder = append(ladder, level{fine: cur, cmap: nil})
	return ladder
}
