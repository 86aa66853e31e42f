package multilevel

// arena is the scratch memory of one Partition call: a bump allocator per
// element type with mark/release, so the ladder, the sides and every FM
// call of every bisection share a few large buffers instead of allocating
// (and zeroing, and leaving for the collector) fresh slices at every
// level, pass and bisection. The call's bisections run one after another,
// each on what the one before released (run.recurse), so the chunks sized
// for the root's graph serve the whole recursion. Beside the slabs it holds
// the call's one gain queue: every growBisection and fmRefine of the call
// reuses it in turn, so a queue that outgrew its first capacity on stale
// entries stays grown instead of spilling again on every call. The call's
// tree (run.tree) is an arena too.
//
// An arena lives no longer than the Partition call that created it, on that
// call's goroutine. Nothing is retained across calls — a measured choice
// (peak_sys_mb; DESIGN §4). The zero value is ready for use.
type arena struct {
	i32 slab[int32]
	i64 slab[int64]
	u8  slab[uint8]
	// tmp is a second int32 stack for tables that die while i32
	// allocations made after them live on (a level's match order and
	// contraction tables, under the ladder): released from i32 they would
	// leave holes beneath everything allocated since.
	tmp slab[int32]
	// heap is the queue; see queue.
	heap gainHeap
	// odd is the second stack: the one odd ladder level that exists at a
	// time (coarsen, bisect). Its own quantum is zero, so its chunks are
	// sized by the requests of the largest odd level, which is the root
	// bisection's. coarsen creates it on first use and empties it at the
	// start of every bisection.
	odd *arena
}

// newArena returns an arena for a Partition call on a graph of n vertices:
// buffers are allocated n elements at a time, so per-vertex arrays pack and
// the scratch of a small level or a deeper bisection fits the buffers of
// any other.
func newArena(n int) *arena {
	a := &arena{}
	a.i32.quantum, a.i64.quantum, a.u8.quantum, a.tmp.quantum = n, n, n, n
	return a
}

// queue returns the arena's gain queue, emptied. Its first use allocates
// room for one entry per vertex of the call's graph; appends beyond that
// grow it, and it keeps the larger capacity for the call's later users. One
// caller at a time: growBisection and fmRefine each take it for their
// whole call and never nest.
func (a *arena) queue() *gainHeap {
	if a.heap == nil {
		a.heap = make(gainHeap, 0, max(a.i32.quantum, minChunk))
	}
	a.heap = a.heap[:0]
	return &a.heap
}

type arenaMark struct {
	i32, i64, u8, tmp slabMark
}

// mark records the arena's fill level; release(mark) frees everything
// allocated since.
func (a *arena) mark() arenaMark {
	return arenaMark{a.i32.mark(), a.i64.mark(), a.u8.mark(), a.tmp.mark()}
}

func (a *arena) release(m arenaMark) {
	a.i32.release(m.i32)
	a.i64.release(m.i64)
	a.u8.release(m.u8)
	a.tmp.release(m.tmp)
}

// minChunk is the smallest buffer a slab allocates, in elements.
const minChunk = 256

// slab is a bump allocator over a list of buffers: an allocation takes the
// first buffer at or after the current one with room for it, or appends one
// of max(request, quantum, minChunk) elements — requests larger than the
// quantum (adjacency arrays) get a buffer of exactly their size. release
// moves the fill level back; the buffers stay for the next allocation.
type slab[T any] struct {
	chunks  [][]T
	cur     int // index of the buffer being filled
	off     int // elements of chunks[cur] handed out
	quantum int
}

type slabMark struct{ cur, off int }

// alloc returns n elements with arbitrary contents.
func (s *slab[T]) alloc(n int) []T {
	for ; s.cur < len(s.chunks); s.cur, s.off = s.cur+1, 0 {
		if c := s.chunks[s.cur]; s.off+n <= len(c) {
			out := c[s.off : s.off+n : s.off+n]
			s.off += n
			return out
		}
	}
	c := make([]T, max(n, s.quantum, minChunk))
	s.chunks = append(s.chunks, c)
	s.off = n
	return c[:n:n]
}

// zeroed returns n zero elements.
func (s *slab[T]) zeroed(n int) []T {
	out := s.alloc(n)
	clear(out)
	return out
}

// filled returns n elements set to v.
func (s *slab[T]) filled(n int, v T) []T {
	out := s.alloc(n)
	for i := range out {
		out[i] = v
	}
	return out
}

func (s *slab[T]) mark() slabMark { return slabMark{s.cur, s.off} }

func (s *slab[T]) release(m slabMark) { s.cur, s.off = m.cur, m.off }

// shrink cuts x, the slab's most recent allocation, down to its first used
// elements and gives the rest back.
func (s *slab[T]) shrink(x []T, used int) []T {
	if n := len(x); n > 0 && s.off >= n && &s.chunks[s.cur][s.off-n] == &x[0] {
		s.off -= n - used
	}
	return x[:used:used]
}
