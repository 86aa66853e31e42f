package multilevel

import (
	"math/rand"
)

// growBisection produces an initial two-way partition of g by greedy graph
// growing: start a region from a random seed and repeatedly absorb the
// frontier vertex with the highest gain (most edges into the region, fewest
// out) until the region reaches targetLeft weight. Disconnected graphs are
// handled by reseeding from any unvisited vertex — one rng.Intn(n) per
// reseed, the only draws this function makes.
//
// side[v] is 0 for the grown region, 1 for the rest. side is allocated in a
// and outlives the call; the flags do not, and the queue is the arena's.
func growBisection(a *arena, g *mlGraph, rng *rand.Rand, targetLeft int64) []uint8 {
	n := g.n()
	side := a.u8.filled(n, 1)
	if n == 0 || targetLeft <= 0 {
		return side
	}
	defer a.release(a.mark())

	inRegion := a.u8.zeroed(n)
	inQueue := a.u8.zeroed(n)
	var regionW int64
	pq := a.queue()

	seed := func() int32 {
		start := rng.Intn(n)
		for off := 0; off < n; off++ {
			v := int32((start + off) % n)
			if inRegion[v] == 0 {
				return v
			}
		}
		return -1
	}

	absorb := func(v int32) {
		inRegion[v] = 1
		side[v] = 0
		regionW += g.vw[v]
		adj, w := g.row(v)
		for p, u := range adj {
			if inRegion[u] != 0 {
				continue
			}
			if inQueue[u] != 0 {
				pq.bump(u, w[p])
			} else {
				// gain = edges into region − edges out; initialise with
				// this edge in and the rest out.
				var deg int32
				_, uw := g.row(u)
				for _, x := range uw {
					deg += x
				}
				pq.push(gainItem{v: u, gain: 2*w[p] - deg})
				inQueue[u] = 1
			}
		}
	}

	for regionW < targetLeft {
		if len(*pq) == 0 {
			s := seed()
			if s < 0 {
				break
			}
			// Stop rather than overshoot grossly on the last component.
			if regionW > 0 && regionW+g.vw[s] > targetLeft+targetLeft/2 {
				break
			}
			absorb(s)
			continue
		}
		item := pq.pop()
		if inRegion[item.v] != 0 {
			continue
		}
		absorb(item.v)
	}
	return side
}

// gainItem is a vertex with its current gain: 8 bytes.
type gainItem struct {
	v    int32
	gain int32
}

// gainHeap is a binary max-heap of frontier vertices by gain, implemented
// directly rather than through container/heap: the refinement inner loop
// performs millions of pushes and pops, and the interface boxing of
// heap.Push/Pop costs an allocation per operation. Stale entries are
// tolerated (lazy deletion); bump pushes an updated entry.
//
// The heap's layout is part of the partitioner's output: among equal gains
// the pop order depends on where every earlier push and pop left each
// entry, and refinement moves vertices in pop order. push and siftDown
// therefore carry the travelling entry in a register along a hole instead
// of swapping it down step by step, but perform exactly the comparisons of
// the textbook swap-based heap — `>` between two children (left wins a
// tie), `>=` of the travelling entry against the larger child or of a
// parent against it (the entry already higher stays put) — so the backing
// array after every operation is the same. heap_test.go keeps the swap-based
// heap as the oracle.
//
// Gains are int32 and the child pick subtracts two of them, so every gain
// in a heap must lie strictly between −2³⁰ and 2³⁰; MaxTotalEdgeWeight
// guarantees it for every heap the partitioner builds. A call's scratch
// arena owns its one heap (arena.queue), which keeps whatever capacity its
// pushes grew it to.
type gainHeap []gainItem

// push inserts an item and sifts it up.
func (h *gainHeap) push(it gainItem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].gain >= it.gain {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = it
}

// pop removes and returns the maximum-gain item.
func (h *gainHeap) pop() gainItem {
	s := *h
	top := s[0]
	last := len(s) - 1
	*h = s[:last]
	if last > 0 {
		s[:last].siftDown(0, s[last])
	}
	return top
}

// siftDown places it at the position it sinks to from the hole at i.
func (h gainHeap) siftDown(i int, it gainItem) {
	n := len(h)
	for {
		r := 2*i + 2
		if r >= n {
			break
		}
		// Both children exist: step to the right one iff it is strictly
		// larger, by the sign bit of left − right instead of a branch the
		// predictor would miss half the time. The subtraction is exact
		// because every gain is below 2³⁰ in magnitude
		// (MaxTotalEdgeWeight).
		big := r - 1 + int(uint32(h[r-1].gain-h[r].gain)>>31)
		c := h[big]
		if it.gain >= c.gain {
			h[i] = it
			return
		}
		h[i] = c
		i = big
	}
	if l := 2*i + 1; l < n && it.gain < h[l].gain {
		h[i] = h[l]
		i = l
	}
	h[i] = it
}

// heapify establishes the heap property over arbitrary contents.
func (h gainHeap) heapify() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i, h[i])
	}
}

// bump raises v's priority by pushing a fresher, higher-gain entry; the
// stale one is skipped when popped (the pop path rechecks membership).
func (h *gainHeap) bump(v int32, extra int32) {
	// Lazy strategy: we do not track the old gain; pushing a new entry
	// with a modest boost keeps the heap approximate but fast. The greedy
	// growing phase only needs a good-enough ordering — FM refinement
	// cleans up afterwards.
	h.push(gainItem{v: v, gain: 2 * extra})
}
