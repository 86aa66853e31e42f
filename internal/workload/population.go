package workload

import (
	"math/rand"

	"ethpart/internal/types"
)

// The population layer of the workload pipeline. The substrate already
// grows a heavy-tailed population through preferential attachment (and
// optionally communities); PopulationSpec layers hot-account skew with
// recency bias on top: a bounded ring of the most recently active
// addresses, and a configurable fraction of interaction targets drawn
// from it, biased toward its newest entries. This is the pebble-bench
// recent-block-bias idiom (SNIPPETS.md §3) applied to accounts: real
// serving load concentrates on whatever was hot in the last few minutes,
// which is exactly the pressure the decayed interaction graph is supposed
// to track.

// PopulationSpec parameterises hot-account targeting for a scenario.
// The zero value disables the layer (pure preferential attachment).
type PopulationSpec struct {
	// HotProb is the probability an interaction target is drawn from the
	// recently-active ring instead of the preferential-attachment pools.
	HotProb float64
	// RecencyBias is the probability a hot draw is confined to the newest
	// fifth of the ring (default 0 = uniform over the ring; pebble-bench's
	// PoS workloads use 0.8).
	RecencyBias float64
}

// hotSetSize is the recency ring's capacity.
const hotSetSize = 256

// popState is the recency ring: a fixed-capacity circular buffer of the
// most recently active addresses, newest at head−1. Duplicates are kept on
// purpose — an address active k times in the window occupies k slots and
// is k times as likely to be drawn.
type popState struct {
	spec PopulationSpec
	ring []types.Address
	head int
	size int
}

func newPopState(spec PopulationSpec) *popState {
	return &popState{spec: spec, ring: make([]types.Address, hotSetSize)}
}

// note records addr as just-active. Called from the pool-update path after
// every executed interaction; consumes no randomness.
func (p *popState) note(addr types.Address) {
	p.ring[p.head] = addr
	p.head = (p.head + 1) % len(p.ring)
	if p.size < len(p.ring) {
		p.size++
	}
}

// draw returns a hot target with probability HotProb: a uniform ring
// member, or — with probability RecencyBias — a member of the newest fifth.
func (p *popState) draw(rng *rand.Rand) (types.Address, bool) {
	if p.size == 0 || rng.Float64() >= p.spec.HotProb {
		return types.Address{}, false
	}
	span := p.size
	if p.spec.RecencyBias > 0 && rng.Float64() < p.spec.RecencyBias {
		span = 1 + p.size/5
	}
	back := rng.Intn(span)
	idx := p.head - 1 - back
	if idx < 0 {
		idx += len(p.ring)
	}
	return p.ring[idx], true
}
