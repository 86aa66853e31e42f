package multilevel

import (
	"fmt"
	"math/rand"

	"ethpart/internal/graph"
)

// The paper reproduction's fixed parameters. Every pinned partition — the
// digests, the sim goldens, the ledger's exact counts — was produced with
// these values, so they are constants, not options.
const (
	// coarsenTo stops coarsening once the graph has at most this many
	// vertices.
	coarsenTo = 120
	// initialTrials is the number of greedy-growing attempts at the
	// coarsest level; the best refined bisection wins.
	initialTrials = 4
	// fmPasses bounds refinement passes per level.
	fmPasses = 6
	// epsilon is the allowed relative imbalance of each bisection
	// (tolerance = epsilon × total weight).
	epsilon = 0.03
)

// MaxTotalEdgeWeight is the largest total edge weight (graph.CSR.TotalEW)
// Partition accepts. Inside, every edge weight, degree and gain is an int32;
// this bound is what keeps each of them, and every difference the gain heap
// takes, exact.
//
// Let W be the CSR's TotalEW. The CSR has no self-loops, and no level
// derived from it gains weight: contraction drops the edges inside a pair
// and merges parallel ones, split drops the cut edges. So on every level an
// edge weight w and a vertex's weighted degree d are both at most W, and
//   - internal and external degrees, FM gains (external − internal) and
//     greedy-growing gains (2w − d) lie in [−W, W];
//   - 2w — a gain step in flip, the entry a growing bump pushes — is at most
//     2W.
//
// With W ≤ 2²⁹ − 1 every gain in any heap has magnitude at most
// 2W < 2³⁰, so the difference of two gains that siftDown's child pick
// takes has magnitude below 2³¹: it never wraps, and its sign bit is the
// comparison. (Queued gains in fact lie in [−W, 2W], so 3W < 2³¹ would
// suffice; the power of two keeps gainHeap's own precondition, |gain| <
// 2³⁰, independent of which caller fills it.) The ledger's era-scale CSRs
// weigh ≈ 0.5 M.
const MaxTotalEdgeWeight = 1<<29 - 1

// Config parameterises the multilevel partitioner.
type Config struct {
	// Seed drives matching order and initial seeds; fixed seeds give
	// reproducible partitions. Zero means 1.
	Seed int64
}

// Partitioner is the METIS-substitute multilevel k-way partitioner.
type Partitioner struct {
	cfg Config
}

// New returns a Partitioner.
func New(cfg Config) *Partitioner {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &Partitioner{cfg: cfg}
}

// Partition implements partition.Partitioner by recursive multilevel
// bisection with proportional targets, so any k ≥ 1 (not only powers of
// two) is supported. The Partitioner holds no state beyond its Config and
// is safe for concurrent callers: everything a call allocates belongs to
// that call and is dropped when it returns. A CSR heavier than
// MaxTotalEdgeWeight is refused before anything is allocated.
func (p *Partitioner) Partition(c *graph.CSR, k int) ([]int, error) {
	if k < 1 {
		return nil, fmt.Errorf("multilevel: k must be >= 1, got %d", k)
	}
	if c.TotalEW > MaxTotalEdgeWeight {
		return nil, fmt.Errorf("multilevel: total edge weight %d exceeds MaxTotalEdgeWeight (%d), the most int32 gains can hold", c.TotalEW, MaxTotalEdgeWeight)
	}
	n := c.N()
	parts := make([]int, n)
	if k == 1 || n == 0 {
		return parts, nil
	}
	r := &run{
		tree:    *newArena(n),
		scratch: *newArena(n),
		parts:   parts,
		rng:     rand.New(rand.NewSource(p.cfg.Seed)),
	}
	g := fromCSR(&r.tree, c)
	vmap := r.tree.i32.alloc(n)
	for i := range vmap {
		vmap[i] = int32(i)
	}
	r.recurse(g, vmap, k, 0)
	return parts, nil
}

// run is the state of one Partition call, which runs on its caller's
// goroutine from start to end.
//
// The random stream is the partitioner's output as much as the graph is:
// its draws — one Fisher–Yates per coarsening level, one Intn per
// growBisection reseed — are made bisection after bisection in recursion
// pre-order.
type run struct {
	parts []int
	rng   *rand.Rand

	// tree holds what outlives a bisection — vertex weights, vertex maps
	// and split subgraphs.
	tree arena
	// scratch holds what one bisection needs, and only while it runs: the
	// bisections run one after another, so each reuses the chunks, second
	// stack and queue the root's left, sized for the root's graph.
	scratch arena
}

// recurse assigns shards [base, base+k) to the vertices of g (whose
// original indices are vmap), splitting k proportionally at each level.
// The bisection's scratch is released once its side is read — into parts,
// or by split into the tree — so the children bisect on the same chunks.
func (r *run) recurse(g *mlGraph, vmap []int32, k, base int) {
	if k == 1 {
		for _, orig := range vmap {
			r.parts[orig] = base
		}
		return
	}
	kL := (k + 1) / 2
	kR := k - kL
	m := r.scratch.mark()
	side := r.bisect(&r.scratch, g, g.totalVW*int64(kL)/int64(k))
	if k == 2 {
		// Both children are leaves: the sides are the shards.
		for v, orig := range vmap {
			r.parts[orig] = base + int(side[v])
		}
		r.scratch.release(m)
		return
	}
	sub, submap := split(&r.tree, &r.scratch, g, side, vmap)
	r.scratch.release(m)
	r.recurse(sub[0], submap[0], kL, base)
	r.recurse(sub[1], submap[1], kR, base+kL)
}

// bisect is one multilevel bisection of g with side 0 aiming at targetLeft
// weight: coarsen, grow initialTrials initial partitions of the coarsest
// graph, polish each by FM in order and keep the first of the smallest cut,
// then uncoarsen, projecting through the ladder (re-contracting its odd
// levels) and refining at each level. The returned side of the finest
// graph lives in a.
func (r *run) bisect(a *arena, g *mlGraph, targetLeft int64) []uint8 {
	tol := max(int64(epsilon*float64(g.totalVW)), 1)
	// Cap supernode weight so hubs stay splittable.
	maxVW := max(g.totalVW/16, 4)
	ladder := coarsen(a, g, r.rng, maxVW)
	coarsest := ladder[len(ladder)-1].fine
	var trials [initialTrials][]uint8
	for t := range trials {
		trials[t] = growBisection(a, coarsest, r.rng, targetLeft)
	}
	best, bestCut := 0, int64(0)
	for t, side := range trials {
		fmRefine(a, coarsest, side, targetLeft, tol, fmPasses)
		if cut := coarsest.cutOf(side); t == 0 || cut < bestCut {
			best, bestCut = t, cut
		}
	}

	// Each step first empties a.odd of the level above it: the coarsest
	// (read no more once a trial is picked; it sits there when its level
	// is odd), then each rebuilt level once its side is projected. The
	// rebuilds run smallest first, so each fits the chunks the way down
	// left.
	side := trials[best]
	for i := len(ladder) - 2; i >= 0; i-- {
		a.odd.release(arenaMark{})
		fine, cmap := ladder[i].fine, ladder[i].cmap
		if fine == nil {
			fine = rebuild(a, ladder, i)
		}
		fineSide := a.u8.alloc(fine.n())
		for v := range fineSide {
			fineSide[v] = side[cmap[v]]
		}
		fmRefine(a, fine, fineSide, targetLeft, tol, fmPasses)
		side = fineSide
	}
	return side
}
