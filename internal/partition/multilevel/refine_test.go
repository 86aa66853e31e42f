package multilevel

import (
	"math/rand"
	"slices"
	"testing"
)

// fmRefineRecompute is the refinement fmRefine replaced, kept as its oracle:
// every pass recomputes every vertex's gain from scratch in O(E), moves
// leave locked neighbours' gains stale, and rollbacks only flip sides back.
// Same queue contents, same pop order, same moves — fmRefine must leave the
// same side.
func fmRefineRecompute(g *mlGraph, side []uint8, targetLeft, tol int64, maxPasses int) {
	n := g.n()
	if n == 0 {
		return
	}
	gains := make([]int32, n)
	locked := make([]bool, n)
	var leftW int64
	for v := 0; v < n; v++ {
		if side[v] == 0 {
			leftW += g.vw[v]
		}
	}
	computeGain := func(v int32) (int32, bool) {
		adj, w := g.row(v)
		var in, out int32
		for p, u := range adj {
			if side[u] == side[v] {
				in += w[p]
			} else {
				out += w[p]
			}
		}
		return out - in, out > 0
	}
	withinAfter := func(v int32) bool {
		newLeft := leftW
		if side[v] == 0 {
			newLeft -= g.vw[v]
		} else {
			newLeft += g.vw[v]
		}
		devNew := abs64(newLeft - targetLeft)
		if devNew <= tol {
			return true
		}
		return devNew < abs64(leftW-targetLeft)
	}
	move := func(v int32) {
		if side[v] == 0 {
			side[v] = 1
			leftW -= g.vw[v]
		} else {
			side[v] = 0
			leftW += g.vw[v]
		}
	}

	pq := &swapHeap{}
	for pass := 0; pass < maxPasses; pass++ {
		for i := range locked {
			locked[i] = false
		}
		*pq = (*pq)[:0]
		for v := int32(0); int(v) < n; v++ {
			gain, boundary := computeGain(v)
			gains[v] = gain
			if boundary {
				*pq = append(*pq, gainItem{v: v, gain: gain})
			}
		}
		pq.heapify()

		var (
			moves   []int32
			cum     int64
			bestCum int64
			bestIdx = -1
		)
		for len(*pq) > 0 {
			if bestIdx >= 0 && len(moves)-1-bestIdx >= noImprovementLimit {
				break
			}
			item := pq.pop()
			v := item.v
			if locked[v] {
				continue
			}
			if item.gain != gains[v] {
				pq.push(gainItem{v: v, gain: gains[v]})
				continue
			}
			if !withinAfter(v) {
				continue
			}
			move(v)
			locked[v] = true
			cum += int64(item.gain)
			moves = append(moves, v)
			if cum > bestCum {
				bestCum = cum
				bestIdx = len(moves) - 1
			}
			adj, w := g.row(v)
			for p, u := range adj {
				if locked[u] {
					continue
				}
				if side[u] == side[v] {
					gains[u] -= 2 * w[p]
				} else {
					gains[u] += 2 * w[p]
					pq.push(gainItem{v: u, gain: gains[u]})
				}
			}
		}
		for i := len(moves) - 1; i > bestIdx; i-- {
			move(moves[i])
		}
		if bestCum <= 0 {
			break
		}
	}
}

// randomMLGraph returns a symmetric weighted graph of n vertices and about
// m edges — parallel picks merge, and one in eight vertices also gets a
// self-loop, which a foreign CSR may carry — with vertex weights in [1, maxVW].
func randomMLGraph(rng *rand.Rand, n, m int, maxVW int64) *mlGraph {
	weight := make(map[[2]int32]int32)
	for i := 0; i < m; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v && rng.Intn(8) != 0 {
			continue
		}
		if u > v {
			u, v = v, u
		}
		weight[[2]int32{u, v}] += 1 + rng.Int31n(4)
	}
	rows := make([][]int32, n)
	for e := range weight {
		rows[e[0]] = append(rows[e[0]], e[1])
		if e[0] != e[1] {
			rows[e[1]] = append(rows[e[1]], e[0])
		}
	}
	g := &mlGraph{xadj: []int32{0}, vw: make([]int64, n)}
	for v := int32(0); int(v) < n; v++ {
		slices.Sort(rows[v])
		for _, u := range rows[v] {
			g.adj = append(g.adj, u)
			g.adjw = append(g.adjw, weight[[2]int32{min(u, v), max(u, v)}])
		}
		g.xadj = append(g.xadj, int32(len(g.adj)))
		g.vw[v] = 1 + rng.Int63n(maxVW)
		g.totalVW += g.vw[v]
	}
	return g
}

// TestFMRefineMatchesRecomputeOracle: the incremental refinement and the
// recompute-per-pass one leave the same side on random weighted graphs —
// dense and sparse, unit and heavy vertex weights, starting balanced, at
// the edge of the envelope, and far outside it.
func TestFMRefineMatchesRecomputeOracle(t *testing.T) {
	a := new(arena)
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(400)
		g := randomMLGraph(rng, n, n*(1+rng.Intn(6)), 1+rng.Int63n(5))
		// leftShare of the vertices start on side 0: 0 and 1 put
		// everything on one side, far outside any envelope.
		leftShare := []float64{0, 0.1, 0.5, 0.5, 0.5, 0.9, 1}[rng.Intn(7)]
		side := make([]uint8, n)
		for v := range side {
			if rng.Float64() >= leftShare {
				side[v] = 1
			}
		}
		targetLeft := g.totalVW * int64(1+rng.Intn(3)) / 4
		tol := max(1, int64(0.03*float64(g.totalVW)))
		passes := 1 + rng.Intn(8)

		want := slices.Clone(side)
		fmRefineRecompute(g, want, targetLeft, tol, passes)
		fmRefine(a, g, side, targetLeft, tol, passes)
		if !slices.Equal(side, want) {
			t.Fatalf("seed %d (n=%d, leftShare=%g, target=%d/%d, passes=%d): sides differ", seed, n, leftShare, targetLeft, g.totalVW, passes)
		}
	}
}
