package shardchain

import (
	"fmt"

	"ethpart/internal/chain"
)

// Elastic shard lanes (DESIGN.md §7): the chain's shard count follows the
// autoscaler. AddShards spins new lanes up empty; RemoveShards
// decommissions the highest-index lanes once DrainShard confirms nothing
// references them any more. The drain itself is not a new mechanism — the
// resize wave re-homes every account off the dropped lanes (MigrateAccount
// moves materialised state through the ordinary migration path), then
// settle-only Steps flush the in-flight receipts through the existing
// block-barrier machinery until PendingReceipts hits zero. Only then does
// removal truncate the lane slices. Both calls must happen between Steps,
// from the coordinator goroutine.

// AddShards grows the chain to newK lanes. The new lanes start with empty
// state, inboxes and journals; they receive traffic as soon as the caller's
// placement source starts answering with their indices. Existing lanes are
// untouched — a grow never moves state by itself.
func (sc *ShardChain) AddShards(newK int) error {
	oldK := sc.cfg.K
	if newK <= oldK {
		return fmt.Errorf("shardchain: AddShards to %d lanes, have %d", newK, oldK)
	}
	for i := oldK; i < newK; i++ {
		sh := &shard{
			state:  chain.NewState(),
			outbox: make([][]Receipt, newK),
		}
		if sc.cfg.Fault != nil {
			sh.seen = make(map[uint64]uint64)
		}
		sc.shards = append(sc.shards, sh)
	}
	// Existing lanes' per-destination outboxes grow to address the new
	// lanes.
	for _, sh := range sc.shards[:oldK] {
		sh.outbox = append(sh.outbox, make([][]Receipt, newK-len(sh.outbox))...)
	}
	if sc.blockDelta != nil {
		sc.blockDelta = append(sc.blockDelta, make([]Stats, newK-oldK)...)
	}
	sc.cfg.K = newK
	return nil
}

// DrainShard reports whether lane s is fully drained — no account homed on
// it, no unsettled inbox or outbox traffic, and no fault-channel flight
// addressed to it — returning a descriptive error naming the first blocker
// otherwise. RemoveShards requires it for every dropped lane; callers can
// also use it directly to decide whether another settle-only Step is
// needed.
func (sc *ShardChain) DrainShard(s int) error {
	if s < 0 || s >= sc.cfg.K {
		return fmt.Errorf("shardchain: drain: shard %d out of range [0,%d)", s, sc.cfg.K)
	}
	sh := sc.shards[s]
	if len(sh.inbox) > 0 {
		return fmt.Errorf("shardchain: shard %d still has %d unsettled inbox receipts", s, len(sh.inbox))
	}
	for dst, rs := range sh.outbox {
		if len(rs) > 0 {
			return fmt.Errorf("shardchain: shard %d still has %d undelivered receipts for shard %d", s, len(rs), dst)
		}
	}
	for _, sh2 := range sc.shards {
		if len(sh2.outbox) > s && len(sh2.outbox[s]) > 0 {
			return fmt.Errorf("shardchain: shard %d still addressed by %d undelivered receipts", s, len(sh2.outbox[s]))
		}
	}
	for _, f := range sc.flights {
		if f.dst == s {
			return fmt.Errorf("shardchain: shard %d still addressed by an in-flight fault-channel receipt", s)
		}
	}
	if ids := sc.HomesOn(s); len(ids) > 0 {
		return fmt.Errorf("shardchain: account %v still homed on shard %d", sc.address(ids[0]), s)
	}
	return nil
}

// HomesOn returns the ID of every account currently homed on lane s, in
// ID order. A merge uses it to find the stragglers a receipts-model
// history leaves behind — accounts whose materialised state pinned them to
// a lane earlier waves could only Rehome around — and force-migrate them
// off a lane being decommissioned, deterministically.
func (sc *ShardChain) HomesOn(s int) []uint64 {
	var out []uint64
	for id, home := range sc.home {
		if int(home) == s+1 {
			out = append(out, uint64(id))
		}
	}
	return out
}

// RemoveShards shrinks the chain to newK lanes, decommissioning lanes
// newK..K-1. Every dropped lane must pass DrainShard — the caller re-homed
// its accounts and settled its traffic first — so removal is pure
// bookkeeping: truncate the lane slices and each survivor's outbox range.
func (sc *ShardChain) RemoveShards(newK int) error {
	oldK := sc.cfg.K
	if newK >= oldK {
		return fmt.Errorf("shardchain: RemoveShards to %d lanes, have %d", newK, oldK)
	}
	if newK < 1 {
		return fmt.Errorf("shardchain: RemoveShards to %d lanes", newK)
	}
	for s := newK; s < oldK; s++ {
		if err := sc.DrainShard(s); err != nil {
			return err
		}
	}
	sc.shards = sc.shards[:newK]
	for _, sh := range sc.shards {
		sh.outbox = sh.outbox[:newK]
	}
	if sc.blockDelta != nil {
		sc.blockDelta = sc.blockDelta[:newK]
	}
	sc.cfg.K = newK
	return nil
}
