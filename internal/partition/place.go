package partition

import (
	"math"

	"ethpart/internal/graph"
)

// placeMaxOverload caps how far above the average a shard may grow and
// still receive new vertices: with preferential attachment the dominant
// shard would otherwise absorb nearly every newcomer (rich-get-richer) and
// the partition collapses between repartitionings. 20% headroom matches the
// imbalance tolerance of the multilevel partitioner's bisections.
const placeMaxOverload = 1.2

// PlaceVertex implements the paper's incremental placement rule for a
// vertex appearing between repartitionings: "inspecting all the accounts
// involved in the transaction and picking the shard that minimizes
// edge-cuts; if more than one exists, we maximize the balance." Shards more
// than placeMaxOverload times the average size are not eligible, so the
// rule cannot starve the other shards between repartitionings.
//
// g supplies the new vertex's already-known neighbours (edges created so
// far, including those from the transaction that introduced it); a supplies
// their shards. The vertex is not assigned — the caller decides what to do
// with the answer.
//
// scratch has length at least a.K() and is overwritten, so hot loops (one
// placement per newly seen vertex during replay) place without allocating.
// The overload cap and the balance tie-breaks read the assignment's
// cumulative per-shard counts: the rule serves full history, where no
// vertex retires.
func PlaceVertex(g *graph.Graph, a *Assignment, v graph.VertexID, scratch []int64) int {
	sizes := a.counts
	attract, any := neighbourPull(g, a, v, scratch)
	if !any {
		// No placed neighbours: fall back to the emptiest shard, the
		// balance-maximising choice.
		return leastLoaded(sizes)
	}
	limit := loadCap(sizes)
	best := -1
	for s := range sizes {
		if sizes[s] > limit {
			continue
		}
		switch {
		case best < 0:
			best = s
		case attract[s] > attract[best]:
			best = s
		case attract[s] == attract[best] && sizes[s] < sizes[best]:
			best = s
		}
	}
	if best < 0 {
		return leastLoaded(sizes) // every shard above cap: degenerate, rebalance
	}
	return best
}

// PlaceVertexFennel is the decay-aware variant of the incremental
// placement rule: instead of ranking shards by raw neighbour pull under a
// hard overload cap, it scores them with the streaming Fennel objective
// (Tsourakakis et al., WSDM 2014) — neighbour weight gained minus the
// degree-based marginal size penalty α·γ·|S|^(γ−1), with α computed from
// the graph g's current edge mass and the per-shard counts' vertex total.
//
// Under windowed decay g is the live graph, so the neighbour weights are
// the decayed weights and α tracks the active set: first-sight placement
// then optimises the same recency-weighted objective the decayed
// repartitioner does, instead of a different (cap-gated, raw-pull) one.
// Fennel's hard capacity (streamCapacity) still excludes runaway shards,
// with a least-loaded fallback when every shard is at the cap.
//
// scratch follows PlaceVertex's contract. counts (length at least a.K())
// are the per-shard sizes the penalty and the capacity read: the simulator
// passes its live per-shard counts, because retired vertices keep sticky
// assignments and the assignment's cumulative counts measure dead history.
func PlaceVertexFennel(g *graph.Graph, a *Assignment, v graph.VertexID, scratch []int64, counts []int) int {
	sizes := counts[:a.k]
	k := len(sizes)
	attract, _ := neighbourPull(g, a, v, scratch)
	n := 0
	for _, size := range sizes {
		n += size
	}
	if n == 0 {
		return leastLoaded(sizes)
	}
	gamma := fennelDefaultGamma
	alpha := fennelAlpha(k, float64(g.TotalEdgeWeight()), float64(n), gamma)
	capacity := streamCapacity(n, k)
	best, bestScore := -1, 0.0
	for s, size := range sizes {
		if float64(size) >= capacity {
			continue
		}
		score := float64(attract[s]) - fennelPenalty(alpha, gamma, float64(size))
		switch {
		case best < 0, score > bestScore:
			best, bestScore = s, score
		case score == bestScore && size < sizes[best]:
			best = s
		}
	}
	if best < 0 {
		return leastLoaded(sizes) // every shard at cap: degenerate, rebalance
	}
	return best
}

// fennelDefaultGamma is the size-penalty exponent the Fennel authors
// recommend.
const fennelDefaultGamma = 1.5

// fennelAlpha is Fennel's degree-based penalty scale α = √k·m/n^γ: the
// marginal cost of adding a vertex to a shard of size s is α·γ·s^(γ−1),
// calibrated so the total size penalty is comparable to the edges a
// placement can save. m is the graph's edge mass and n its vertex count —
// under windowed decay callers pass the *live* graph's numbers, so the
// penalty tracks the active set rather than dead history.
func fennelAlpha(k int, m, n, gamma float64) float64 {
	return math.Sqrt(float64(k)) * m / math.Pow(n, gamma)
}

// fennelPenalty is the marginal size penalty α·γ·s^(γ−1).
func fennelPenalty(alpha, gamma, size float64) float64 {
	return alpha * gamma * math.Pow(size, gamma-1)
}

// streamCapacity is the hard capacity behind the Fennel penalty: every
// shard holds at most C = n(1+0.1)/k vertices.
func streamCapacity(n, k int) float64 {
	return float64(n) * 1.1 / float64(k)
}

// neighbourPull is the preamble both placement rules share: the weight of
// v's already-placed neighbours summed per shard into scratch[:a.K()], and
// whether any neighbour is placed at all.
func neighbourPull(g *graph.Graph, a *Assignment, v graph.VertexID, scratch []int64) (attract []int64, any bool) {
	attract = scratch[:a.k]
	for i := range attract {
		attract[i] = 0
	}
	g.Neighbors(v, func(u graph.VertexID, w int64) bool {
		if s, ok := a.ShardOf(u); ok {
			attract[s] += w
			any = true
		}
		return true
	})
	return attract, any
}

// loadCap returns the maximum shard size still eligible for placement. The
// least-loaded shard is always eligible (its size is at most the average).
func loadCap(sizes []int) int {
	total := 0
	for _, size := range sizes {
		total += size
	}
	avg := float64(total) / float64(len(sizes))
	limit := int(placeMaxOverload * avg)
	if limit < 1 {
		limit = 1
	}
	return limit
}

// leastLoaded returns the shard with the fewest vertices, lowest index on
// ties so the choice is deterministic.
func leastLoaded(sizes []int) int {
	best := 0
	for s := 1; s < len(sizes); s++ {
		if sizes[s] < sizes[best] {
			best = s
		}
	}
	return best
}
