package shardchain

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"ethpart/internal/chain"
	"ethpart/internal/sim"
	"ethpart/internal/types"
)

// The parallel engine (Config.Parallel) runs each block's per-shard work on
// one worker per shard — the sim.RunIndexed pool shape — and is
// byte-identical to the serial engine. The structure that makes that
// possible:
//
//   - Blocks are barriers. Within a block, work on different shards never
//     reads another shard's state: cross-shard receipts are buffered into
//     per-item effects and exchanged only at the block barrier, in
//     canonical (source-shard, emission-order) order.
//   - The home map is read-only during a fan-out. Every transaction sender
//     and target (and every inbox receipt target) is pre-resolved before
//     workers start; addresses that only surface during EVM execution are
//     resolved purely (resolveHome is a pure function of the address
//     within one Step) and committed at the next barrier.
//   - Stats are per-item deltas merged at the barrier; sums are
//     order-independent, so totals equal the serial engine's.
//   - Migration-model state movement is serialized. Top-level migrations
//     (a cross transaction moving its sender) are planned by scanning the
//     block in order: each one ends the current wave of parallel-safe
//     transactions and runs with full serial semantics between waves.
//     Internal calls that reach a remote callee cannot be planned (the
//     callee address is computed by the EVM at run time); they abort the
//     item (conflict protocol below) and re-execute serially.
//
// Conflict protocol: wave items run with retained journals and a snapshot
// per item. A worker whose item needs a callee migration reverts the item,
// publishes its index, and stops. After the wave joins, every shard rolls
// back all items at or after the earliest conflict (their effects are
// discarded, so outboxes and stats stay exact), the conflicted transaction
// re-executes serially — where migrating the callee is safe — and planning
// resumes after it. The earliest conflict is a deterministic function of
// the block prefix, so repeated runs take identical barriers.

// waveItem is one transaction pinned to the shard that does its work.
type waveItem struct {
	idx  int // index into the block's transactions
	work int // shard doing the work
	// receiptsCross marks the receipts-model cross path (debit the sender,
	// emit a receipt to dst) instead of local execution.
	receiptsCross bool
	dst           int
}

// itemRun records one executed wave item for the conflict rollback.
type itemRun struct {
	it   waveItem
	snap int // journal snapshot of the work shard before the item
	eff  effects
	// seen are the item's first-sight home resolutions. They are kept per
	// item because only surviving items may commit them: a rolled-back
	// item's re-execution can take a different path and never touch the
	// address again, and committing its resolution anyway would create a
	// home entry the serial engine never makes — divergent placement the
	// first time the assignment changes under the address's feet.
	seen []homePair
}

// migrationNeeded aborts a wave item whose internal call reached a callee
// homed on another shard; only a serialized context may migrate it.
type migrationNeeded struct{ to types.Address }

// workerPanic wraps any non-sentinel panic escaping a wave item with the
// shard and transaction it was executing. The sentinel check in
// runWaveItem matches by type, so an unrelated panic (a bug, an injected
// crash inside a worker) can never be mistaken for a migration abort and
// silently rolled back — it surfaces, with context attached.
type workerPanic struct {
	Shard, Tx int
	Val       any
}

func (p workerPanic) Error() string {
	return fmt.Sprintf("shardchain: wave worker panic on shard %d (tx %d): %v", p.Shard, p.Tx, p.Val)
}

// stepParallel is Step's parallel engine.
func (sc *ShardChain) stepParallel(txs []*chain.Transaction, receipts []*chain.Receipt) {
	sc.settleParallel()
	sc.executeParallel(txs, receipts)
}

// settleParallel settles every shard's inbox on a worker per shard.
// Settlements on shard s touch only shard s's state and its own outbox, so
// no conflict protocol is needed; receipts only exist under ModelReceipts,
// whose hook never migrates. (Under ModelMigration inboxes are always
// empty — the hook migrates callees instead of emitting receipts — but if
// one were ever non-empty, the serial path handles it exactly.)
func (sc *ShardChain) settleParallel() {
	total := 0
	for _, sh := range sc.shards {
		total += len(sh.inbox)
	}
	if total == 0 {
		return
	}
	if sc.cfg.Model == ModelMigration {
		sc.settleInboxesSerial()
		return
	}
	// Pre-resolve every receipt target so workers read the home map
	// read-only (continuation code can still surface new addresses; those
	// resolve purely and commit at the barrier).
	for _, sh := range sc.shards {
		for _, r := range sh.inbox {
			sc.HomeOf(r.To)
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

// executeParallel executes the block's transactions in waves of
// parallel-safe items, with migration-model barriers serialized between
// them, writing each outcome into *receipts[i].
func (sc *ShardChain) executeParallel(txs []*chain.Transaction, receipts []*chain.Receipt) {
	// Pre-resolve every sender and target before any fan-out, so planning
	// and workers see a frozen home map.
	for _, tx := range txs {
		sc.HomeOf(tx.From)
		if tx.To != nil {
			sc.HomeOf(*tx.To)
		}
	}
	h := &sc.itemHomes
	p := 0
	for p < len(txs) {
		q, items := sc.planWave(txs, p, h)
		if len(items) == 0 {
			// txs[p] needs its sender migrated before it can run: the
			// serialized migration barrier. Run the whole transaction with
			// serial semantics and resume planning after it.
			sc.runTxSerial(txs[p], receipts[p])
			p++
			continue
		}
		if c := sc.runWave(txs, items, receipts); c >= 0 {
			// Conflict: everything at or after c was rolled back; item c
			// re-executes serially (callee migrations allowed), and the
			// remainder of the block is re-planned against the new homes.
			sc.runTxSerial(txs[c], receipts[c])
			p = c + 1
			continue
		}
		p = q
	}
}

// planWave scans txs[p:] in block order and returns the end of the maximal
// wave of parallel-safe transactions plus their pinned work shards. Under
// ModelMigration a cross transaction needs its sender migrated first —
// state movement only a serialized context may perform — so it ends the
// wave (an empty wave means txs[p] itself is such a barrier). Under
// ModelReceipts every transaction is parallel-safe and the wave is the
// whole rest of the block. Homes cannot change inside a wave (the only
// in-block mutations are the serialized migrations between waves and the
// conflict path, which re-plans), so the pins stay valid.
func (sc *ShardChain) planWave(txs []*chain.Transaction, p int, h *homes) (int, []waveItem) {
	var items []waveItem
	for i := p; i < len(txs); i++ {
		tx := txs[i]
		exec := sc.execShardOf(tx, h)
		sender := h.of(tx.From)
		cross := sender != exec
		if sc.cfg.Model == ModelMigration && cross {
			return i, items
		}
		it := waveItem{idx: i, work: exec}
		if cross { // ModelReceipts: the sender's shard does the work
			it.work = sender
			it.receiptsCross = true
			it.dst = exec
		}
		items = append(items, it)
	}
	return len(txs), items
}

// runWave executes one wave on a worker per shard. It returns the earliest
// conflicting transaction index, or -1 when the wave committed cleanly.
// On conflict, every shard's state is rolled back to just before its first
// item at or after the conflict and those items' effects are discarded;
// committed items (all strictly before the conflict) have exactly the
// serial engine's cumulative effect.
func (sc *ShardChain) runWave(txs []*chain.Transaction, items []waveItem, receipts []*chain.Receipt) int {
	queues := make([][]waveItem, sc.cfg.K)
	for _, it := range items {
		queues[it.work] = append(queues[it.work], it)
	}
	runs := make([][]itemRun, sc.cfg.K)
	var conflict atomic.Int64
	conflict.Store(math.MaxInt64)
	// Conflicts (and therefore rollbacks) only exist under ModelMigration:
	// the receipts-model hook never migrates, so its waves skip the
	// retained journals and per-item snapshots entirely.
	retain := sc.cfg.Model == ModelMigration

	sim.RunIndexed(sc.cfg.K, func(s int) {
		st := sc.shards[s].state
		for _, it := range queues[s] {
			// A conflict strictly before this item means it will be rolled
			// back regardless; stop early. (conflict only ever decreases,
			// so everything skipped here is at or after the final value.)
			if int64(it.idx) > conflict.Load() {
				break
			}
			// A fresh recorder per item: only surviving items commit their
			// first-sight resolutions (resolveHome is pure within the
			// Step, so re-resolving across items costs nothing).
			h := &homes{sc: sc, record: true}
			run := itemRun{it: it}
			if retain {
				run.snap = st.Snapshot()
			}
			if sc.runWaveItem(txs[it.idx], it, h, &run.eff, receipts, retain) {
				// Needs a callee migration: undo the item and publish the
				// conflict (keep the minimum across workers).
				st.RevertToSnapshot(run.snap)
				for {
					cur := conflict.Load()
					if int64(it.idx) >= cur || conflict.CompareAndSwap(cur, int64(it.idx)) {
						break
					}
				}
				break
			}
			run.seen = h.seen
			runs[s] = append(runs[s], run)
		}
	})

	c := -1
	if v := conflict.Load(); v != math.MaxInt64 {
		c = int(v)
	}
	if c >= 0 {
		// Roll every shard back to just before its first item at or after
		// the conflict; their effects are dropped with them.
		for s := range runs {
			for j, run := range runs[s] {
				if run.it.idx >= c {
					sc.shards[s].state.RevertToSnapshot(run.snap)
					runs[s] = runs[s][:j]
					break
				}
			}
		}
	}
	// Merge surviving items in transaction order — the serial engine's
	// application order: commit their first-sight homes (pure values the
	// conflict path may later overwrite, exactly as the serial engine
	// would) and land their effects. Then drop the retained journals.
	var survivors []itemRun
	for s := range runs {
		survivors = append(survivors, runs[s]...)
	}
	sort.Slice(survivors, func(i, j int) bool { return survivors[i].it.idx < survivors[j].it.idx })
	for i := range survivors {
		sc.commitHomes(survivors[i].seen)
		sc.applyEffects(survivors[i].it.work, &survivors[i].eff)
	}
	if retain {
		for _, sh := range sc.shards {
			sh.state.DiscardJournal()
		}
	}
	return c
}

// runWaveItem executes one wave item on its worker, reporting whether it
// aborted on a needed callee migration (remoteCall panics migrationNeeded
// for a recording home view). Receipts for committed items land at their
// transaction index; aborted or rolled-back indices are rewritten by the
// serialized re-execution.
func (sc *ShardChain) runWaveItem(tx *chain.Transaction, it waveItem, h *homes, eff *effects, receipts []*chain.Receipt, retain bool) (aborted bool) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case migrationNeeded:
			aborted = true
		case workerPanic:
			// Already wrapped by an inner frame; keep the innermost context.
			panic(r)
		default:
			panic(workerPanic{Shard: it.work, Tx: it.idx, Val: r})
		}
	}()
	if it.receiptsCross {
		sc.crossEmit(it.work, it.dst, tx, eff, retain, receipts[it.idx])
		return false
	}
	sc.runLocal(it.work, tx, sc.hookFor(it.work, h, eff), eff, retain, receipts[it.idx])
	return false
}
