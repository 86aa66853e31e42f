package shardchain

import (
	"maps"
	"math/rand"
	"slices"
	"time"

	"ethpart/internal/chain"
)

// This file is the chain side of the fault-injection plane (Config.Fault):
// the crash victims' durable log and crash recovery, and the fault-aware
// delivery channel the barrier exchange routes through when message faults
// are scheduled. Everything here runs on the coordinator goroutine —
// injection and recovery happen between the engine fan-out and the barrier
// exchange, never inside a worker — which keeps every decision in one
// deterministic, canonical order.

// walRecord is a crash victim's durable log entry for the current block:
// its undelivered inbox and applied-receipt journal. Its state needs no
// entry — the victim holds its journal for the block (chain.State.
// HoldJournal), so unwinding that journal restores the state at the block
// boundary. Restoring the three is exactly "the shard restarted from its
// last durable point".
type walRecord struct {
	shard int
	inbox []Receipt
	seen  map[uint64]uint64
}

// journalVictims writes the durable log entry of every shard the schedule
// crashes in the block about to execute; no other shard pays for one. The
// durable point is the boundary *entering* the block, so it captures
// mutations made between blocks (opsim funding accounts at first sight,
// externally driven migrations), which an exit-of-previous-block snapshot
// would lose. A victim named on a lane a merge has since removed is
// skipped: the lane it would crash no longer exists.
func (sc *ShardChain) journalVictims() {
	sc.wal = sc.wal[:0]
	for _, s := range sc.cfg.Fault.CrashedShards(sc.clock) {
		if s >= sc.cfg.K {
			continue
		}
		sh := sc.shards[s]
		sh.state.HoldJournal()
		sc.wal = append(sc.wal, walRecord{shard: s, inbox: slices.Clone(sh.inbox), seen: maps.Clone(sh.seen)})
	}
}

// dedupWindow is how many blocks a shard remembers applied receipt IDs. It
// must exceed the worst-case redelivery horizon or a late duplicate could
// settle twice: the fault plane's five capped-backoff drops (2+4+8+8+8
// blocks), its delay bound (4) and a duplicate's extra block come to 35.
const dedupWindow = 128

// pruneSeen ages the applied-receipt journals past the dedup window. It
// sweeps once a window, so an entry lives one to two windows: never less
// than dedup needs, and a sweep per block would cost a fault-armed run
// more than all of its crash recoveries.
func (sc *ShardChain) pruneSeen() {
	if sc.clock%dedupWindow != 0 {
		return
	}
	cut := sc.clock - dedupWindow
	for _, sh := range sc.shards {
		for id, b := range sh.seen {
			if b < cut {
				delete(sh.seen, id)
			}
		}
	}
}

// workShardOf returns the shard doing tx's work this block: the executing
// shard, or — for a receipts-model cross transaction — the sender's shard
// (which debits the sender and emits the receipt).
func (sc *ShardChain) workShardOf(rt route, h *homes) int {
	exec := h.of(rt.to)
	if sc.cfg.Model == ModelReceipts {
		if sender := h.of(rt.from); sender != exec {
			return sender
		}
	}
	return exec
}

// recoverShard handles the scheduled crash-stop of w's shard during the
// current block: discard the shard's partial block work (unwind its held
// journal, restore its inbox and applied-receipt journal, clear its
// outboxes, subtract its stat deltas) and replay — re-settle the journaled
// inbox, then re-run the shard's slice of the block's transactions. Valid
// because receipts-model block work is shard-isolated (a shard's work
// writes only its own state and its own outbox) and first-sight home
// resolution is pure within a Step, so the replay reproduces the discarded
// work exactly; it runs before the barrier exchange, so none of the
// discarded emissions ever left the shard.
func (sc *ShardChain) recoverShard(w *walRecord, txs []*chain.Transaction, routes []route, receipts []*chain.Receipt) {
	inj := sc.cfg.Fault
	start := time.Now()
	inj.Metrics.Crashes.Add(1)

	s := w.shard
	sh := sc.shards[s]
	sh.state.RevertToSnapshot(0)
	sh.state.ReleaseJournal()
	sh.inbox = w.inbox
	sh.seen = w.seen
	for dst := range sh.outbox {
		sh.outbox[dst] = nil
	}
	sc.stats = sc.stats.Sub(sc.blockDelta[s])
	sc.blockDelta[s] = Stats{}

	items := len(sh.inbox)
	sc.settleInboxSerial(s, sh)
	for i, tx := range txs {
		if sc.workShardOf(routes[i], &sc.itemHomes) != s {
			continue
		}
		sc.runTxSerial(tx, routes[i], receipts[i])
		items++
	}
	inj.Metrics.ItemsReplayed.Add(uint64(items))
	inj.Metrics.RecoveryNanos.Add(uint64(time.Since(start)))
}

// flight is one receipt inside the fault-aware delivery channel.
type flight struct {
	r       Receipt
	dst     int
	first   uint64 // barrier block it entered the channel
	due     uint64 // earliest barrier it may next be considered
	attempt int    // delivery attempts rolled so far
	forced  bool   // fate already decided: deliver at due, no further rolls
}

// exchangeFaulty is the barrier exchange routed through the injector:
// each due flight rolls its seeded outcome — dropped (re-queued with
// backoff; the fault plane's last attempt always delivers, so the channel
// is at-least-once), delayed, and/or duplicated — and deliveries land in the
// destination inboxes, optionally reordered per the seeded shuffle. The
// queue and every decision live on the coordinator, keyed by receipt ID
// and attempt, so two runs of one schedule inject identical faults.
func (sc *ShardChain) exchangeFaulty() {
	inj := sc.cfg.Fault
	for _, sh := range sc.shards {
		for dst, rs := range sh.outbox {
			for _, r := range rs {
				sc.flights = append(sc.flights, flight{r: r, dst: dst, first: sc.clock, due: sc.clock})
			}
			sh.outbox[dst] = rs[:0]
		}
	}

	arrivals := make([][]Receipt, sc.cfg.K)
	deliver := func(fl flight) {
		r := fl.r
		r.Delay += sc.clock - fl.first // barriers the channel held it beyond normal
		arrivals[fl.dst] = append(arrivals[fl.dst], r)
	}

	var next []flight
	for _, fl := range sc.flights {
		if fl.due > sc.clock {
			next = append(next, fl)
			continue
		}
		if fl.forced {
			deliver(fl)
			continue
		}
		fl.attempt++
		o := inj.Delivery(fl.r.ID, fl.attempt)
		if o.Drop {
			inj.Metrics.Dropped.Add(1)
			fl.due = sc.clock + o.Backoff
			next = append(next, fl)
			continue
		}
		if o.Duplicate {
			inj.Metrics.Duplicated.Add(1)
			dup := fl
			dup.forced = true
			dup.due = sc.clock + 1
			next = append(next, dup)
		}
		if o.Delay > 0 {
			inj.Metrics.Delayed.Add(1)
			fl.forced = true
			fl.due = sc.clock + o.Delay
			next = append(next, fl)
			continue
		}
		deliver(fl)
	}
	sc.flights = next

	for dst, rs := range arrivals {
		if len(rs) == 0 {
			continue
		}
		if inj.ShuffleDeliveries() {
			rng := rand.New(rand.NewSource(int64(inj.ShuffleSeed(dst, sc.clock))))
			rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
		}
		sc.shards[dst].inbox = append(sc.shards[dst].inbox, rs...)
	}
}
