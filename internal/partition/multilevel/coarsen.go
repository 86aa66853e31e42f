package multilevel

import (
	"math/rand"
)

// level is one rung of the coarsening ladder: the fine graph and the map
// from its vertices to the coarse graph built from it. The ladder stores
// the graphs of its even levels (the input is level 0) and of its coarsest
// level; an odd level below the coarsest has a nil fine graph, and
// bisect re-contracts it from the level above it on the way up (rebuild).
type level struct {
	fine *mlGraph
	cmap []int32
}

// heavyEdgeMatching computes a matching that prefers heavy edges: vertices
// are visited in random order and an unmatched vertex pairs with its
// unmatched neighbour of maximum edge weight. maxVW caps the combined
// weight of a pair so hubs do not snowball into unsplittable supernodes.
// It returns the fine→coarse map and the coarse vertex count.
//
// The visit order is an inside-out Fisher–Yates shuffle drawing
// rng.Intn(i+1) for i = 0..n-1 — the draws, and therefore the permutation,
// of rand.Perm(n), which this replaces so the order lives in the arena as
// int32 instead of a fresh []int per level.
func heavyEdgeMatching(a *arena, g *mlGraph, rng *rand.Rand, maxVW int64) (cmap []int32, nCoarse int) {
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
// internal to a pair disappear. The coarse graph is allocated in dst, its
// tables in a.tmp. contract is a pure function of g and cmap, so a level
// contracted twice is the same graph twice.
func contract(a, dst *arena, g *mlGraph, cmap []int32, nCoarse int) *mlGraph {
	coarse := &mlGraph{
		xadj:    dst.i32.alloc(nCoarse + 1),
		vw:      dst.i64.zeroed(nCoarse),
		totalVW: g.totalVW,
	}
	// The coarse adjacency is at most as long as the fine one: targets and
	// weights are filled in place in the two halves of one buffer, then the
	// weights are moved down behind the targets and the buffer is shrunk to
	// its exact length.
	m := len(g.adj)
	buf := dst.i32.alloc(2 * m)
	adj, adjw := buf[:m], buf[m:]
	defer a.tmp.release(a.tmp.mark())
	// members[2c] and members[2c+1] are the (one or two) fine vertices of
	// coarse vertex c, in ascending fine order; -1 marks a missing second.
	members := a.tmp.filled(2*nCoarse, -1)
	// pos[cu] is where coarse neighbour cu was last written in the
	// adjacency. Rows are written in order, so it lies at or past the
	// current row's start exactly when the row already lists cu, and the
	// edge's weight accumulates there: one table lookup per fine edge,
	// allocation-free per coarse vertex.
	pos := a.tmp.filled(nCoarse, -1)
	for v := int32(0); int(v) < g.n(); v++ {
		c := cmap[v]
		if members[2*c] < 0 {
			members[2*c] = v
		} else {
			members[2*c+1] = v
		}
		coarse.vw[c] += g.vw[v]
	}
	used := int32(0)
	coarse.xadj[0] = 0
	for c := int32(0); int(c) < nCoarse; c++ {
		start := used
		for _, v := range members[2*c : 2*c+2] {
			if v < 0 {
				continue
			}
			fadj, w := g.row(v)
			for p, u := range fadj {
				cu := cmap[u]
				if cu == c {
					continue
				}
				if q := pos[cu]; q >= start {
					adjw[q] += w[p]
				} else {
					pos[cu] = used
					adj[used] = cu
					adjw[used] = w[p]
					used++
				}
			}
		}
		coarse.xadj[c+1] = used
	}
	copy(buf[used:], adjw[:used])
	buf = dst.i32.shrink(buf, 2*int(used))
	coarse.adj, coarse.adjw = buf[:used:used], buf[used:]
	return coarse
}

// coarsen builds the ladder of successively coarser graphs, stopping when
// the graph is small enough (coarsenTo) or matching stops making progress.
// Every cmap and the graphs of the even levels live in a. Each odd level is
// built on a.odd and dropped from it once the next level is contracted
// from it, unless it is the coarsest; so a.odd holds at most one graph.
// a.odd is emptied first: an earlier bisection of the call may have left
// its last level there, and its chunks are reused.
func coarsen(a *arena, g *mlGraph, rng *rand.Rand, maxVW int64) []level {
	if a.odd == nil {
		a.odd = new(arena)
	}
	a.odd.release(arenaMark{})
	var ladder []level
	cur := g
	for cur.n() > coarsenTo {
		cmap, nCoarse := heavyEdgeMatching(a, cur, rng, maxVW)
		if float64(nCoarse) > 0.95*float64(cur.n()) {
			break // diminishing returns; stop coarsening
		}
		// cur is level len(ladder); the next level is one coarser.
		if nextOdd := len(ladder)%2 == 0; nextOdd {
			ladder = append(ladder, level{fine: cur, cmap: cmap})
			cur = contract(a, a.odd, cur, cmap, nCoarse)
		} else {
			ladder = append(ladder, level{cmap: cmap}) // bisect rebuilds cur
			cur = contract(a, a, cur, cmap, nCoarse)
			a.odd.release(arenaMark{})
		}
	}
	ladder = append(ladder, level{fine: cur, cmap: nil})
	return ladder
}

// rebuild re-contracts odd level i of ladder on a.odd from the level above
// it, which the ladder stores.
func rebuild(a *arena, ladder []level, i int) *mlGraph {
	up := ladder[i-1]
	return contract(a, a.odd, up.fine, up.cmap, len(ladder[i].cmap))
}
