package directory

import (
	"fmt"

	"ethpart/internal/graph"
	"ethpart/internal/slab"
)

// Publisher adapts a stream of placement events — the shape of the sim
// package's OnPlace/OnMove/OnRepartition/OnRetire/OnResize callbacks — into
// directory commits with the serving layer's atomicity contract:
//
//   - first-sight placements buffer and commit together at the next Flush
//     (the operational bridge flushes once per replayed record, so a
//     record's placements become visible before the chain resolves homes);
//   - a repartition's moves buffer from OnMove and commit as ONE epoch
//     flip when OnRepartition fires — readers never observe a torn wave;
//   - a resize wave commits its new shard count together with every remap
//     in the same single flip (OnResize), so no reader can pair an old k
//     with a new placement;
//   - retirements buffer and spill to the cold tier with the next commit
//     (spilling only relocates an entry between tiers, it never changes a
//     lookup's answer, so its visibility timing is free).
//
// A Publisher is not safe for concurrent use; it lives on the simulator's
// replay goroutine and only the committed snapshots cross threads.
type Publisher struct {
	c Committer

	places    []Move
	moves     []Move
	movesCold []Move
	retires   []graph.VertexID
	// slab carves outgoing batches' Set and SetCold lanes.
	slab MoveSlab

	// shards stamps outgoing batches; zero (never declared) inherits.
	shards int
	// live, when set, routes moves of non-live (retired) vertices to the
	// batch's tier-preserving SetCold lane instead of Set, so a merge wave
	// remapping sticky assignments off a drained shard doesn't re-hydrate
	// dead history into the hot tier.
	live func(graph.VertexID) bool
	// hints, when set, is drained into each outgoing batch's Promote lane:
	// read-side cold-tier hits become hot-tier re-hydrations at the next
	// commit, without the read path ever taking a write lock.
	hints *HintRing
}

// NewPublisher returns a publisher committing through c — a Directory, or
// a wrapper (fault injection, replication) between publisher and directory.
func NewPublisher(c Committer) *Publisher {
	return &Publisher{c: c}
}

// SetShards declares the shard count stamped on every subsequent commit.
// Call it once at wiring time with the initial k; resize waves update it
// through OnResize.
func (p *Publisher) SetShards(k int) { p.shards = k }

// SetLive installs the liveness test used to route wave moves between the
// promoting Set lane (live vertices) and the tier-preserving SetCold lane
// (retired ones). A nil func restores the default: every move promotes.
func (p *Publisher) SetLive(fn func(graph.VertexID) bool) { p.live = fn }

// AttachHints installs the promotion hint ring the publisher drains at
// every commit. The ring's producers are the serving path's readers (local
// snapshot lookups or the networked front end); the publisher is the
// ring's single consumer.
func (p *Publisher) AttachHints(r *HintRing) { p.hints = r }

// OnPlace buffers a first-sight placement.
func (p *Publisher) OnPlace(v graph.VertexID, shard int) {
	p.places = append(p.places, Move{V: v, To: shard})
}

// OnMove buffers one move of an in-progress repartition or resize wave.
func (p *Publisher) OnMove(v graph.VertexID, _, to int) {
	if p.live != nil && !p.live(v) {
		p.movesCold = append(p.movesCold, Move{V: v, To: to})
		return
	}
	p.moves = append(p.moves, Move{V: v, To: to})
}

// OnRetire buffers a retirement spill.
func (p *Publisher) OnRetire(v graph.VertexID, _ int) {
	p.retires = append(p.retires, v)
}

// OnRepartition commits the buffered wave (plus any placements and
// retirements buffered before it) as a single epoch flip, marked as a wave
// commit for the committer.
func (p *Publisher) OnRepartition(moves int) error {
	if moves != len(p.moves)+len(p.movesCold) {
		// The caller's move count and the buffered wave disagree — a
		// mis-wired callback chain would otherwise commit torn waves
		// silently.
		return fmt.Errorf("directory: repartition reported %d moves but %d were observed",
			moves, len(p.moves)+len(p.movesCold))
	}
	return p.flush(true)
}

// OnResize commits a resize wave: the new shard count plus every buffered
// remap of the wave, as exactly one epoch flip. A pure resize (no moves —
// e.g. a split whose re-partition happened to move nothing) still flips
// once, carrying the count alone.
func (p *Publisher) OnResize(newK, moves int) error {
	if newK < 1 {
		return fmt.Errorf("directory: resize to %d shards", newK)
	}
	if moves != len(p.moves)+len(p.movesCold) {
		return fmt.Errorf("directory: resize reported %d moves but %d were observed",
			moves, len(p.moves)+len(p.movesCold))
	}
	p.shards = newK
	b := p.take(newK)
	_, err := p.c.CommitBatch(b, true)
	return err
}

// Flush commits everything buffered as one epoch flip. A flush with
// nothing buffered is a no-op (no epoch is burned).
func (p *Publisher) Flush() error {
	return p.flush(false)
}

func (p *Publisher) flush(wave bool) error {
	if len(p.places) == 0 && len(p.moves) == 0 && len(p.movesCold) == 0 && len(p.retires) == 0 &&
		(p.hints == nil || p.hints.Empty()) {
		return nil
	}
	b := p.take(p.shards)
	_, err := p.c.CommitBatch(b, wave)
	return err
}

// take drains the buffers (and the hint ring) into one batch stamped with
// the given shard count. Committers may retain a batch beyond the call — a
// stalled wave in the fault plane, an asynchronous replica fan-out, a
// recording committer — so no slice of it aliases the publisher's reusable
// buffers or another batch: Set and SetCold are carved by the MoveSlab,
// Retire and Promote freshly allocated.
func (p *Publisher) take(shards int) Batch {
	b := Batch{Shards: shards}
	b.Set = append(p.slab.Carve(len(p.places)+len(p.moves)), p.places...)
	b.Set = append(b.Set, p.moves...)
	b.SetCold = append(p.slab.Carve(len(p.movesCold)), p.movesCold...)
	b.Retire = append(b.Retire, p.retires...)
	if p.hints != nil && !p.hints.Empty() {
		seen := make(map[graph.VertexID]struct{})
		p.hints.Drain(func(v graph.VertexID) {
			if _, dup := seen[v]; dup {
				return
			}
			seen[v] = struct{}{}
			b.Promote = append(b.Promote, v)
		})
	}
	p.places = p.places[:0]
	p.moves = p.moves[:0]
	p.movesCold = p.movesCold[:0]
	p.retires = p.retires[:0]
	return b
}

// moveChunk is how many moves one MoveSlab allocation holds, and maxCarve
// the longest lane carved from it; a longer lane, such as a wave's, is
// allocated exactly.
const (
	moveChunk = 256
	maxCarve  = 64
)

// MoveSlab carves batch lanes (package slab), so a batch of a few moves
// costs a share of an object instead of one, and a batch built from it may
// be retained and even extended by whoever receives it. A Move holds no
// pointers, so a retained lane keeps only its chunk's bytes alive. The
// zero value is ready to use; a MoveSlab is not safe for concurrent use.
type MoveSlab struct {
	lanes slab.Chunks[Move]
}

// Carve returns an empty lane with capacity exactly n: nil for none, a
// share of the current chunk for at most maxCarve, its own allocation
// otherwise.
func (s *MoveSlab) Carve(n int) []Move {
	switch {
	case n == 0:
		return nil
	case n > maxCarve:
		return make([]Move, 0, n)
	}
	return s.lanes.Lane(n, moveChunk)[:0]
}
