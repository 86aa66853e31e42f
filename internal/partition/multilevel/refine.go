package multilevel

// noImprovementLimit ends a pass after this many consecutive moves that did
// not beat the pass's best prefix — once there is one. The METIS early exit
// that keeps a productive pass linear in the useful part of the boundary.
// It is armed only by a first improvement: a pass that never improves on
// its starting cut drains the whole queue and is rolled back in full.
// Arming it from the first move is measurably faster and measurably changes
// the partitions (and with them the paper's move counts), so it waits for a
// PR that re-pins them — DESIGN §4.
const noImprovementLimit = 128

// fmState is the refinement state of one two-way partition. gains and ed
// are exact for every vertex, locked or not, after every flip — moves and
// rollbacks alike — so a pass never has to recompute them.
type fmState struct {
	g      *mlGraph
	side   []uint8
	gains  []int32 // external − internal incident weight: the cut saved by moving
	ed     []int32 // external incident weight; > 0 iff on the boundary
	locked []uint8 // moved in the current pass
	leftW  int64   // weight of side 0

	targetLeft, tol int64 // the balance envelope: |leftW − targetLeft| ≤ tol
}

// flip moves v to the other side and brings leftW and the gain and external
// degree of v and of every neighbour up to date. With a queue, unlocked
// neighbours whose gain rose are pushed at their new gain; only increases
// need a fresh entry (decreases are caught lazily by the stale-pop re-queue
// in the pass loop), which keeps the heap small on dense boundaries. A
// rollback passes no queue.
func (s *fmState) flip(v int32, pq *gainHeap) {
	sv := s.side[v] ^ 1
	s.side[v] = sv
	if sv == 0 {
		s.leftW += s.g.vw[v]
	} else {
		s.leftW -= s.g.vw[v]
	}
	adj, w := s.g.row(v)
	var in, out int32
	for p, u := range adj {
		wp := w[p]
		if u == v {
			in += wp // a self-loop is never cut
			continue
		}
		if s.side[u] == sv {
			in += wp
			s.ed[u] -= wp
			s.gains[u] -= 2 * wp
		} else {
			out += wp
			s.ed[u] += wp
			s.gains[u] += 2 * wp
			if pq != nil && s.locked[u] == 0 {
				pq.push(gainItem{v: u, gain: s.gains[u]})
			}
		}
	}
	s.gains[v], s.ed[v] = out-in, out
}

// withinAfter reports whether moving v keeps (or brings) the left weight
// inside the envelope, or at least improves the deviation — the latter
// prevents deadlock when a level starts out of balance.
func (s *fmState) withinAfter(v int32) bool {
	newLeft := s.leftW
	if s.side[v] == 0 {
		newLeft -= s.g.vw[v]
	} else {
		newLeft += s.g.vw[v]
	}
	devNew := abs64(newLeft - s.targetLeft)
	if devNew <= s.tol {
		return true
	}
	return devNew < abs64(s.leftW-s.targetLeft)
}

// fmRefine runs Fiduccia–Mattheyses boundary refinement on a two-way
// partition: repeatedly move the highest-gain movable vertex to the other
// side (respecting the balance envelope), lock it, and at the end of the
// pass roll back to the best prefix seen. Passes repeat until one yields no
// improvement or maxPasses is reached.
//
// Only boundary vertices (those with at least one cross edge) enter the
// move queue: interior vertices always have negative gain, and restricting
// the queue to the boundary is what makes refinement linear in the cut
// region rather than the whole graph. Vertices become eligible as their
// neighbours move.
//
// Gains and external degrees are computed once, in O(E), and then kept
// exact by flip, so each pass starts from an O(n) scan for ed[v] > 0 in
// ascending v — the queue contents, in the order, a per-pass recomputation
// would produce (refine_test.go keeps that version as the oracle).
//
// side is modified in place. targetLeft is the ideal weight of side 0 and
// tol the allowed absolute deviation from it. Scratch comes from a and is
// released on return.
func fmRefine(a *arena, g *mlGraph, side []uint8, targetLeft, tol int64, maxPasses int) {
	n := g.n()
	if n == 0 {
		return
	}
	defer a.release(a.mark())
	s := fmState{
		g:      g,
		side:   side,
		gains:  a.i32.alloc(n),
		ed:     a.i32.alloc(n),
		locked: a.u8.zeroed(n),

		targetLeft: targetLeft,
		tol:        tol,
	}
	for v := int32(0); int(v) < n; v++ {
		if side[v] == 0 {
			s.leftW += g.vw[v]
		}
		adj, w := g.row(v)
		var in, out int32
		for p, u := range adj {
			if side[u] == side[v] {
				in += w[p]
			} else {
				out += w[p]
			}
		}
		s.gains[v], s.ed[v] = out-in, out
	}

	// A vertex moves at most once per pass, so n bounds the move list; the
	// queue holds stale entries too and grows the arena's as it needs.
	moves := a.i32.alloc(n)[:0]
	pq := a.queue()
	for pass := 0; pass < maxPasses; pass++ {
		*pq = (*pq)[:0]
		for v, e := range s.ed {
			if e > 0 {
				*pq = append(*pq, gainItem{v: int32(v), gain: s.gains[v]})
			}
		}
		pq.heapify()

		var (
			cum     int64
			bestCum int64
			bestIdx = -1 // index into moves of the best prefix end
		)
		moves = moves[:0]
		for len(*pq) > 0 {
			if bestIdx >= 0 && len(moves)-1-bestIdx >= noImprovementLimit {
				break
			}
			item := pq.pop()
			v := item.v
			if s.locked[v] != 0 {
				continue
			}
			if item.gain != s.gains[v] {
				// Stale: this vertex's gain changed since it was queued.
				// Re-queue it at its true gain so it is not lost.
				pq.push(gainItem{v: v, gain: s.gains[v]})
				continue
			}
			if !s.withinAfter(v) {
				continue
			}
			s.flip(v, pq)
			s.locked[v] = 1
			cum += int64(item.gain)
			moves = append(moves, v)
			if cum > bestCum {
				bestCum = cum
				bestIdx = len(moves) - 1
			}
		}

		// Roll back past the best prefix, then unlock what moved.
		for i := len(moves) - 1; i > bestIdx; i-- {
			s.flip(moves[i], nil)
		}
		for _, v := range moves {
			s.locked[v] = 0
		}
		if bestCum <= 0 {
			break // pass produced no improvement
		}
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
