package partition

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"ethpart/internal/graph"
)

// klMaxRounds bounds the propose/exchange rounds of one refinement; the
// algorithm stops earlier when no shard proposes a positive-gain move.
// klSeed drives the probabilistic exchange, so runs are reproducible.
const (
	klMaxRounds = 8
	klSeed      = 0
)

// KL implements the paper's distributed Kernighan–Lin variant (§II-C):
// each shard independently selects vertices whose move to another shard
// would reduce the (dynamic) edge-cut, an oracle gathers the per-pair
// proposal counts into a k×k probability matrix that keeps the exchange
// balanced, and shards then move each proposed vertex with the oracle's
// probability. Intuitively the matrix lets shard i send to shard j only as
// much as j sends back, so shard sizes stay put while the cut drops.
//
// KL refines an existing partition; it never partitions from scratch (the
// paper bootstraps it with hashing).
type KL struct{}

// NewKL returns a KL refiner.
func NewKL() *KL { return &KL{} }

// proposal is one shard's wish to move a vertex to another shard.
type proposal struct {
	vertex int32
	gain   int64
}

// Refine returns an improved copy of current, which maps each local
// vertex of c to a shard in [0,k).
func (kl *KL) Refine(c *graph.CSR, k int, current []int) ([]int, error) {
	if k < 1 {
		return nil, fmt.Errorf("partition: kl: k must be >= 1, got %d", k)
	}
	if len(current) != c.N() {
		return nil, fmt.Errorf("partition: kl: current has %d entries for %d vertices", len(current), c.N())
	}
	if err := ValidateParts(current, k); err != nil {
		return nil, fmt.Errorf("partition: kl: %w", err)
	}
	parts := append([]int(nil), current...)
	rng := rand.New(rand.NewSource(klSeed))
	props := make([][]proposal, k*k)
	attract := make([]int64, k)

	for round := 0; round < klMaxRounds; round++ {
		kl.propose(c, parts, props, attract)
		x := proposalCounts(props, k)
		p := ProbabilityMatrix(x)
		moved := kl.exchange(rng, props, p, parts)
		if moved == 0 {
			break
		}
	}
	return parts, nil
}

// propose runs the per-shard selection phase: for every vertex, compute the
// gain of moving it to its most attractive external shard; keep positive
// gains, best-gain first. It refills props (k*k lists, one per shard pair)
// in place and uses attract (k entries) as scratch, so Refine's rounds
// share their storage.
func (kl *KL) propose(c *graph.CSR, parts []int, props [][]proposal, attract []int64) {
	k := len(attract)
	for idx := range props {
		props[idx] = props[idx][:0]
	}
	for v := int32(0); int(v) < c.N(); v++ {
		from := parts[v]
		adj, w := c.Row(v)
		for i := range attract {
			attract[i] = 0
		}
		for p, u := range adj {
			attract[parts[u]] += w[p]
		}
		bestShard, bestGain := -1, int64(0)
		for s := 0; s < k; s++ {
			if s == from {
				continue
			}
			if gain := attract[s] - attract[from]; gain > bestGain {
				bestShard, bestGain = s, gain
			}
		}
		if bestShard >= 0 {
			idx := from*k + bestShard
			props[idx] = append(props[idx], proposal{vertex: v, gain: bestGain})
		}
	}
	for _, l := range props {
		slices.SortFunc(l, func(a, b proposal) int { return cmp.Compare(b.gain, a.gain) })
	}
}

// proposalCounts reduces proposals to the per-pair counts the oracle sees.
func proposalCounts(props [][]proposal, k int) [][]int {
	x := make([][]int, k)
	for i := range x {
		x[i] = make([]int, k)
		for j := 0; j < k; j++ {
			x[i][j] = len(props[i*k+j])
		}
	}
	return x
}

// ProbabilityMatrix is the oracle computation: given x[i][j] = number of
// vertices shard i proposes to move to shard j, return p[i][j], the
// probability with which each such proposal should be executed so that the
// expected flow i→j equals the expected flow j→i and shards stay balanced.
//
// Exported separately because it is the paper's "oracle" component and is
// property-tested on its own.
func ProbabilityMatrix(x [][]int) [][]float64 {
	k := len(x)
	p := make([][]float64, k)
	for i := range p {
		p[i] = make([]float64, k)
		for j := 0; j < k; j++ {
			if i == j || x[i][j] == 0 {
				continue
			}
			matched := min(x[i][j], x[j][i])
			p[i][j] = float64(matched) / float64(x[i][j])
		}
	}
	return p
}

// exchange executes proposals with the oracle's probabilities and returns
// the number of vertices moved.
func (kl *KL) exchange(rng *rand.Rand, props [][]proposal, p [][]float64, parts []int) int {
	k := len(p)
	moved := 0
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			prob := p[i][j]
			if prob == 0 {
				continue
			}
			for _, prop := range props[i*k+j] {
				if parts[prop.vertex] != i {
					continue // already moved this round
				}
				if rng.Float64() < prob {
					parts[prop.vertex] = j
					moved++
				}
			}
		}
	}
	return moved
}
