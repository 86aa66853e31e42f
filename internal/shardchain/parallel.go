package shardchain

import (
	"fmt"

	"ethpart/internal/chain"
	"ethpart/internal/sim"
)

// The parallel engine (Config.Parallel on a ModelReceipts chain) fans each
// block's settle and execute phases out over one worker per shard — the
// sim.RunIndexed pool shape — and is byte-identical to the serial engine.
// The structure that makes that possible:
//
//   - Blocks are barriers, and under ModelReceipts state never moves. Work
//     on shard s reads and writes only shard s's state: cross-shard
//     receipts are buffered into effects and exchanged only at the block
//     barrier, in canonical (source-shard, emission-order) order.
//   - The home table and the registry are read-only during a fan-out.
//     Every transaction sender and target (and every inbox receipt target)
//     is pre-resolved before workers start; accounts that only surface
//     during EVM execution are resolved purely (resolveHome is a pure
//     function of the ID within one Step, and an address the registry has
//     not seen is hash-placed), recorded per item and committed at the
//     barrier in the serial engine's order, which registers fresh
//     addresses under the IDs the serial engine gives them.
//   - Stats are deltas merged at the barrier; sums are order-independent,
//     so totals equal the serial engine's.
//
// A ModelMigration chain always takes the serial engine (see Step): moving
// state is something only a serialized context may do, and on the ledger's
// history 69–75 % of transactions are such a move, leaving nothing to fan
// out between them (DESIGN.md §7 has the traffic table).

// waveItem is one transaction pinned to the shard that does its work.
type waveItem struct {
	idx  int   // index into the block's transactions
	rt   route // its endpoints
	work int   // shard doing the work (workShardOf)
	// exec is the executing shard. Where it is not work, the sender lives
	// on work, which debits it and emits a receipt to exec instead of
	// executing locally.
	exec int
}

// workerPanic wraps a panic escaping a wave item (a bug, an injected crash
// inside a worker) with the shard and transaction it was executing, so it
// surfaces with context attached.
type workerPanic struct {
	Shard, Tx int
	Val       any
}

func (p workerPanic) Error() string {
	return fmt.Sprintf("shardchain: wave worker panic on shard %d (tx %d): %v", p.Shard, p.Tx, p.Val)
}

// stepParallel is Step's parallel engine.
func (sc *ShardChain) stepParallel(txs []*chain.Transaction, routes []route, receipts []*chain.Receipt) {
	sc.settleParallel()
	sc.executeParallel(txs, routes, receipts)
}

// settleParallel settles every shard's inbox on a worker per shard.
// Settlements on shard s touch only shard s's state and its own outbox.
func (sc *ShardChain) settleParallel() {
	total := 0
	for _, sh := range sc.shards {
		total += len(sh.inbox)
	}
	if total == 0 {
		return
	}
	// Pre-resolve every receipt target so workers read the home map
	// read-only (continuation code can still surface new addresses; those
	// resolve purely and commit at the barrier).
	for _, sh := range sc.shards {
		for _, r := range sh.inbox {
			sc.HomeOf(r.ToID.ID())
		}
	}
	effs := make([]effects, sc.cfg.K)
	seen := make([][]homePair, sc.cfg.K)
	sim.RunIndexed(sc.cfg.K, func(s int) {
		sh := sc.shards[s]
		inbox := sh.inbox
		sh.inbox = nil
		h := &homes{sc: sc, record: true}
		hook := sc.hookFor(s, h, &effs[s])
		for _, r := range inbox {
			sc.settleOne(s, r, h, &effs[s], hook)
		}
		seen[s] = h.seen
	})
	// Barrier: commit first-sight homes, then land effects in canonical
	// shard order (each shard's emissions are already in settle order).
	for s := 0; s < sc.cfg.K; s++ {
		sc.commitHomes(seen[s])
		sc.applyEffects(s, &effs[s])
	}
}

// executeParallel executes the block's transactions in one fan-out,
// writing each outcome into *receipts[i].
func (sc *ShardChain) executeParallel(txs []*chain.Transaction, routes []route, receipts []*chain.Receipt) {
	// Pre-resolve every sender and target on the coordinator (workShardOf
	// looks at both), so workers see a frozen home table, and queue each
	// transaction on the shard that does its work.
	items := make([]waveItem, len(txs))
	queues := make([][]int, sc.cfg.K)
	for i, rt := range routes {
		work := sc.workShardOf(rt, &sc.itemHomes)
		items[i] = waveItem{idx: i, rt: rt, work: work, exec: sc.HomeOf(rt.to)}
		queues[work] = append(queues[work], i)
	}
	effs := make([]effects, len(txs))
	seen := make([][]homePair, len(txs))
	sim.RunIndexed(sc.cfg.K, func(s int) {
		h := &homes{sc: sc, record: true}
		for _, i := range queues[s] {
			sc.runWaveItem(txs[i], items[i], h, &effs[i], receipts)
			seen[i] = h.seen
			h.seen = nil
		}
	})
	// Barrier: commit the first-sight homes in transaction order — the
	// order the serial engine meets them in, so fresh addresses register
	// under the same IDs — then land every transaction's effects in
	// transaction order, the serial engine's application order.
	for _, pairs := range seen {
		sc.commitHomes(pairs)
	}
	for i := range items {
		sc.applyEffects(items[i].work, &effs[i])
	}
}

// runWaveItem executes one wave item on its worker, writing the outcome
// into receipts[it.idx]; a panic leaves wrapped in a workerPanic.
func (sc *ShardChain) runWaveItem(tx *chain.Transaction, it waveItem, h *homes, eff *effects, receipts []*chain.Receipt) {
	defer func() {
		if r := recover(); r != nil {
			panic(workerPanic{Shard: it.work, Tx: it.idx, Val: r})
		}
	}()
	if it.work != it.exec {
		sc.crossEmit(it.work, it.exec, tx, it.rt, eff, receipts[it.idx])
		return
	}
	sc.runLocal(it.work, tx, sc.hookFor(it.work, h, eff), eff, receipts[it.idx])
}
