package multilevel

import (
	"math/rand"
	"slices"
	"testing"
)

// swapHeap is the textbook swap-based binary max-heap gainHeap replaced: the
// same comparisons, the entry swapped down (or up) one step at a time. It is
// the oracle for gainHeap's layout — the backing array after every
// operation, not just the pop order, since later ties resolve by position.
type swapHeap []gainItem

func (h *swapHeap) push(it gainItem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].gain >= s[i].gain {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (h *swapHeap) pop() gainItem {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	h.siftDown(0)
	return top
}

func (h swapHeap) siftDown(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		big := l
		if r := l + 1; r < n && h[r].gain > h[l].gain {
			big = r
		}
		if h[i].gain >= h[big].gain {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

func (h swapHeap) heapify() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h *swapHeap) bump(v int32, extra int32) {
	h.push(gainItem{v: v, gain: 2 * extra})
}

// TestGainHeapLayoutMatchesSwapHeap drives both heaps with the same random
// operation sequences and demands equal backing arrays after every
// operation. Each row draws gains from five values, so nearly every
// comparison is a tie: small gains, and gains at ± the largest magnitude
// gainHeap admits (2³⁰ − 1), where the child pick's left − right reaches
// ±(2³¹ − 2) and any subtraction narrower than 32 bits would wrap and pick
// the wrong child.
func TestGainHeapLayoutMatchesSwapHeap(t *testing.T) {
	const bound = 1<<30 - 1
	rows := []struct {
		name   string
		gains  [5]int32
		extras [3]int32 // bump pushes 2 × extra
	}{
		{"small", [5]int32{-2, -1, 0, 1, 2}, [3]int32{0, 1, 2}},
		{"bound", [5]int32{-bound, -bound + 1, 0, bound - 1, bound}, [3]int32{-bound / 2, 0, bound / 2}},
	}
	for _, row := range rows {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var got gainHeap
			var want swapHeap
			item := func() gainItem {
				return gainItem{v: rng.Int31n(1 << 20), gain: row.gains[rng.Intn(5)]}
			}
			// Start from heapify over arbitrary contents, as an FM pass does.
			for i := rng.Intn(300); i > 0; i-- {
				it := item()
				got, want = append(got, it), append(want, it)
			}
			got.heapify()
			want.heapify()
			for op := 0; op < 4000; op++ {
				switch r := rng.Intn(10); {
				case r < 4 && len(want) > 0:
					if g, w := got.pop(), want.pop(); g != w {
						t.Fatalf("%s seed %d op %d: popped %v, oracle %v", row.name, seed, op, g, w)
					}
				case r < 8:
					it := item()
					got.push(it)
					want.push(it)
				default:
					v, extra := rng.Int31n(1<<20), row.extras[rng.Intn(3)]
					got.bump(v, extra)
					want.bump(v, extra)
				}
				if !slices.Equal(got, gainHeap(want)) {
					t.Fatalf("%s seed %d op %d: layouts diverged\n got %v\nwant %v", row.name, seed, op, got, want)
				}
			}
		}
	}
}
