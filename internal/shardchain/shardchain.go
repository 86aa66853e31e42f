// Package shardchain is a running sharded blockchain: k independent chains
// (one per shard), an account→shard assignment, and a router that executes
// every transaction under one of the two multi-shard handling classes the
// paper's introduction identifies:
//
//   - ModelReceipts (coordinated-style): a transaction executes on its
//     target's home shard; calls and transfers that reach accounts on other
//     shards become cross-shard receipts, settled asynchronously in the
//     destination shard's next block — the design family of Spanner-style
//     coordination adapted to blockchains (and of Eth2's receipt drafts);
//   - ModelMigration (state-movement): before executing, every remote
//     participant's account state is migrated to the executing shard and
//     the assignment is updated, after which the transaction runs locally —
//     the dynamic-SMR family. This covers internal calls too: a contract
//     call that reaches an account homed elsewhere migrates that account to
//     the executing shard and continues locally, it never emits a receipt.
//
// The paper explicitly does not build this layer ("It is not our goal to
// propose mechanisms for Ethereum to handle multi-shard transactions");
// this package exists so that the study's central quantity — the edge-cut —
// can be observed as what it really is operationally: cross-shard messages,
// settlement latency and migrated state.
//
// # Migration semantics
//
// Migrating an account moves its complete state — balance, nonce, code and
// every storage slot — and leaves nothing on the source: the account record
// itself is re-parented (chain.TransplantAccount), or, when the destination
// already holds an account at the address, merged into it and the source
// copy purged with chain.State.DeleteAccount. Leaving nothing behind is
// load-bearing for correctness: a partial cleanup (e.g. zeroing only the
// balance) leaves a ghost account on the source shard whose nonce, code and
// storage survive, and because a merge transfers live slots only, a later
// round-trip migration would resurrect slots that were zeroed while the
// account lived elsewhere. After a migration the source shard answers
// Exist == false for the address, exactly as if the account had never been
// created there.
//
// Placement can also be driven externally (by a repartitioner running
// alongside the chain): MigrateAccount realises a new placement by moving
// state, while Rehome only redirects accounts whose state has not
// materialised yet — the receipts-model reaction, where existing state
// stays put.
//
// # Execution engines
//
// Two engines produce byte-identical results (receipts, per-shard states,
// stats, homes): the serial reference engine, and — for a ModelReceipts
// chain with Config.Parallel set — a parallel engine that fans each block
// out over one worker per shard with cross-shard receipts exchanged at the
// block barrier (see parallel.go and DESIGN.md §7). A ModelMigration chain
// always runs the serial engine.
package shardchain

import (
	"bytes"
	"fmt"
	"slices"

	"ethpart/internal/chain"
	"ethpart/internal/evm"
	"ethpart/internal/fault"
	"ethpart/internal/partition"
	"ethpart/internal/trace"
	"ethpart/internal/types"
)

// Model selects the multi-shard transaction handling class.
type Model int

const (
	// ModelReceipts settles cross-shard effects asynchronously.
	ModelReceipts Model = iota + 1
	// ModelMigration moves state to the executing shard first.
	ModelMigration
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case ModelReceipts:
		return "receipts"
	case ModelMigration:
		return "migration"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Receipt is a pending cross-shard effect: value (and optionally a call)
// heading for an account on another shard.
type Receipt struct {
	From types.Address
	To   types.Address
	// ToID is To's handle. A receipt a parallel worker emits for an address
	// the registry has not seen carries none until the barrier lands it.
	ToID  chain.Handle
	Value evm.Word
	Input []byte
	// Born is the block height (of the source shard) that emitted the
	// receipt; settlement latency is measured against it.
	Born uint64
	// ID identifies one delivery hop for idempotent settlement under fault
	// injection: the coordinator assigns it when the emission lands in an
	// outbox (zero = unassigned), the destination shard's dedup journal
	// suppresses re-deliveries of the same ID, and forwarding clears it so
	// the next hop gets a fresh identity (a re-forwarded receipt is a new
	// delivery, not a duplicate). Zero whenever no fault plane is armed.
	ID uint64
	// Delay accumulates fault-injected transport latency in blocks
	// (drop/retry backoff and injected delays). Settlement subtracts it, so
	// SettlementBlocks measures the protocol's latency, not the injector's.
	Delay uint64
}

// Stats counts the operational cost of a run.
type Stats struct {
	// Transactions executed, split by locality.
	LocalTxs, CrossTxs int64
	// Messages is the number of cross-shard messages sent (receipts and
	// migration transfers).
	Messages int64
	// ReceiptsSettled counts settled receipts; SettlementBlocks sums the
	// block-latency of each (settled - born), so the mean settlement
	// latency is SettlementBlocks/ReceiptsSettled.
	ReceiptsSettled  int64
	SettlementBlocks int64
	// Migrations counts account moves; MigratedSlots the storage moved.
	Migrations    int64
	MigratedSlots int64
	// Failed counts transactions rejected by validation.
	Failed int64
}

// add accumulates a fieldwise delta.
func (s *Stats) add(d Stats) {
	s.LocalTxs += d.LocalTxs
	s.CrossTxs += d.CrossTxs
	s.Messages += d.Messages
	s.ReceiptsSettled += d.ReceiptsSettled
	s.SettlementBlocks += d.SettlementBlocks
	s.Migrations += d.Migrations
	s.MigratedSlots += d.MigratedSlots
	s.Failed += d.Failed
}

// Sub returns s minus d fieldwise — a window's or wave's share of the
// counters, or crash recovery discarding a crashed shard's partial block
// work before replaying it.
func (s Stats) Sub(d Stats) Stats {
	s.LocalTxs -= d.LocalTxs
	s.CrossTxs -= d.CrossTxs
	s.Messages -= d.Messages
	s.ReceiptsSettled -= d.ReceiptsSettled
	s.SettlementBlocks -= d.SettlementBlocks
	s.Migrations -= d.Migrations
	s.MigratedSlots -= d.MigratedSlots
	s.Failed -= d.Failed
	return s
}

// MeanSettlement returns the mean settlement latency in blocks (zero when
// nothing settled).
func (s Stats) MeanSettlement() float64 {
	if s.ReceiptsSettled == 0 {
		return 0
	}
	return float64(s.SettlementBlocks) / float64(s.ReceiptsSettled)
}

// CrossFraction returns the cross-shard fraction of executed transactions.
func (s Stats) CrossFraction() float64 {
	total := s.LocalTxs + s.CrossTxs
	if total == 0 {
		return 0
	}
	return float64(s.CrossTxs) / float64(total)
}

// Config parameterises the sharded chain.
type Config struct {
	K     int
	Model Model
	// Parallel runs every block's per-shard settle and execute work of a
	// ModelReceipts chain on one worker per shard (a sim.RunIndexed-shaped
	// pool), with outboxes exchanged at the block barrier. Results are
	// byte-identical to the serial engine, which a ModelMigration chain
	// takes regardless: moving state needs a serialized context. When set,
	// any assign callback must be safe for concurrent calls and must answer
	// deterministically for the duration of one Step.
	Parallel bool
	// Fault, when non-nil, arms the deterministic fault-injection plane
	// (internal/fault): scheduled shard crash-stops recovered from the
	// per-shard durable log, and drop/delay/duplicate faults on the barrier
	// receipt exchange answered by retry with backoff and idempotent
	// settlement. Crash schedules require ModelReceipts — a crash inside a
	// migration-model block could tear a two-shard state move, which the
	// per-shard log cannot repair.
	Fault *fault.Injector
}

// ShardChain is the sharded execution engine.
//
// Accounts are keyed by their dense ID in the chain's registry (a
// trace.Registry): the home table, the assignment callback and every
// placement call (HomeOf, Known, MigrateAccount, Rehome, HomesOn) take the
// ID. A transaction that carries its endpoints' handles
// (chain.Transaction.FromID/ToID) is routed and executed without hashing
// an address; an address that arrives without an ID — a genesis
// allocation, an EVM call target, a transaction without handles, ID — is
// looked up in the registry, and registered there on first sight.
//
// ShardChain is not safe for concurrent use: Step, MigrateAccount, Rehome
// and the accessors must be called from one goroutine. With
// Config.Parallel on a ModelReceipts chain the parallelism lives *inside*
// Step, which fans work out to per-shard workers and joins them before
// returning.
type ShardChain struct {
	cfg    Config
	shards []*shard
	// ids is the account registry; addresses the chain meets without an ID
	// are registered in it, on the coordinator only.
	ids *trace.Registry
	// home holds every known account's shard plus one, indexed by ID; zero
	// marks an account without a home yet. During a parallel phase the
	// table is read-only: first-sight placements are resolved purely
	// (resolveHome) and committed at the next barrier.
	home []int32
	// assign supplies the partition for first-seen accounts by ID; accounts
	// it does not know fall back to hash placement.
	assign func(id uint64) (int, bool)
	stats  Stats
	// clock is the global block height (all shards advance in lockstep,
	// one block per Step).
	clock uint64

	// The serial engine's per-item scratch: items run one at a time on the
	// coordinator, so one effects buffer, one home view and one bound
	// RemoteHook serve every item, and itemShard — set before each item —
	// tells the hook which shard is executing.
	itemEff   effects
	itemHomes homes
	itemShard int
	itemHook  evm.RemoteHook

	// Step's receipts: slab holds them, receipts points into it, and both
	// grow to the largest block seen and are rewritten by every Step, as
	// are the block's routes.
	slab     []chain.Receipt
	receipts []*chain.Receipt
	routes   []route

	// Fault-plane state (see fault.go); all nil/zero unless Config.Fault
	// arms it. nextReceiptID feeds delivery-hop identities, blockDelta
	// accumulates each shard's stat deltas within the current block (the
	// part a crash discards), wal holds the durable log entries of the
	// current block's crash victims, and flights is the fault-aware
	// delivery channel's in-flight queue.
	nextReceiptID uint64
	blockDelta    []Stats
	wal           []walRecord
	flights       []flight
}

// shard is one member chain plus its receipt inbox.
type shard struct {
	state *chain.State
	inbox []Receipt
	// outbox[dst] accumulates receipts emitted for shard dst while
	// executing the current block; delivered to peers at the block barrier
	// in canonical (source-shard, emission-order) order.
	outbox [][]Receipt
	// seen journals applied receipt IDs by the block they settled (or
	// forwarded) in, making settlement idempotent under redelivery; pruned
	// past the schedule's dedup window. Nil unless the fault plane is armed.
	seen map[uint64]uint64
}

// New builds a sharded chain with k shards under the given model, keyed
// by ids (a fresh registry when nil). The genesis allocation is placed on
// the owner accounts' home shards, which are derived from the provided
// assignment (accounts it does not know fall back to a hash of the
// address). A registry shared with other goroutines is only read as long
// as every address the chain meets is already in it.
func New(cfg Config, ids *trace.Registry, alloc map[types.Address]evm.Word, assign func(id uint64) (int, bool)) (*ShardChain, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("shardchain: k must be >= 1, got %d", cfg.K)
	}
	if cfg.Model != ModelReceipts && cfg.Model != ModelMigration {
		return nil, fmt.Errorf("shardchain: invalid model %d", cfg.Model)
	}
	if cfg.Fault != nil && cfg.Fault.HasCrashes() && cfg.Model != ModelReceipts {
		return nil, fmt.Errorf("shardchain: crash schedules require ModelReceipts: " +
			"a crash inside a migration-model block could tear a two-shard state move")
	}
	if ids == nil {
		ids = trace.NewRegistry()
	}
	sc := &ShardChain{
		cfg:    cfg,
		shards: make([]*shard, cfg.K),
		ids:    ids,
		home:   make([]int32, ids.Len()),
		assign: assign,
	}
	sc.itemHomes = homes{sc: sc}
	sc.itemHook = sc.serialRemote
	for i := range sc.shards {
		sc.shards[i] = &shard{
			state:  chain.NewState(),
			outbox: make([][]Receipt, cfg.K),
		}
	}
	if cfg.Fault != nil {
		for _, sh := range sc.shards {
			sh.seen = make(map[uint64]uint64)
		}
		if cfg.Fault.HasCrashes() {
			sc.blockDelta = make([]Stats, cfg.K)
		}
	}
	// Genesis accounts register in address order, so their IDs do not
	// depend on map iteration.
	addrs := make([]types.Address, 0, len(alloc))
	for addr := range alloc {
		addrs = append(addrs, addr)
	}
	slices.SortFunc(addrs, func(a, b types.Address) int { return bytes.Compare(a[:], b[:]) })
	for _, addr := range addrs {
		s := sc.HomeOf(sc.ID(addr))
		sc.shards[s].state.AddBalance(addr, alloc[addr])
		sc.shards[s].state.DiscardJournal()
	}
	return sc, nil
}

// ID returns addr's ID in the chain's registry, registering it on first
// sight.
func (sc *ShardChain) ID(addr types.Address) uint64 { return sc.ids.ID(addr) }

// address returns the address of a registered ID.
func (sc *ShardChain) address(id uint64) types.Address {
	addr, _ := sc.ids.Address(id)
	return addr
}

// Known returns the current home shard of account id without assigning
// one.
func (sc *ShardChain) Known(id uint64) (int, bool) {
	if id < uint64(len(sc.home)) && sc.home[id] != 0 {
		return int(sc.home[id] - 1), true
	}
	return 0, false
}

// setHome homes account id on shard s.
func (sc *ShardChain) setHome(id uint64, s int) {
	if id >= uint64(len(sc.home)) {
		sc.home = append(sc.home, make([]int32, id+1-uint64(len(sc.home)))...)
		sc.home = sc.home[:cap(sc.home)]
	}
	sc.home[id] = int32(s + 1)
}

// resolveHome computes the first-sight placement of account id without
// touching the home table: the configured partition decides when it knows
// the account, otherwise placement falls back to a hash of the address. It
// is the pure half of HomeOf — parallel workers call it where writing the
// table would race, and the resolved pairs are committed at the next
// barrier. Within one Step it is a pure function of the ID (the assignment
// callback must not change mid-block), so resolution order cannot matter.
func (sc *ShardChain) resolveHome(id uint64) int {
	if sc.assign != nil {
		if a, ok := sc.assign(id); ok && a >= 0 && a < sc.cfg.K {
			return a
		}
	}
	return hashShard(sc.address(id), sc.cfg.K)
}

// HomeOf returns the current home shard of account id, assigning one on
// first sight: the configured partition decides when it knows the
// account, otherwise placement falls back to a hash of the address.
func (sc *ShardChain) HomeOf(id uint64) int {
	if s, ok := sc.Known(id); ok {
		return s
	}
	s := sc.resolveHome(id)
	sc.setHome(id, s)
	return s
}

// Stats returns the accumulated operational counters.
func (sc *ShardChain) Stats() Stats { return sc.stats }

// K returns the current number of shard lanes — Config.K until a resize
// (AddShards/RemoveShards) moves it.
func (sc *ShardChain) K() int { return sc.cfg.K }

// StateOf exposes a shard's state for inspection.
func (sc *ShardChain) StateOf(shard int) *chain.State { return sc.shards[shard].state }

// primed returns shard s's state with account id resolved by handle, so
// the accesses that follow by address find it without hashing.
func (sc *ShardChain) primed(s int, id uint64) *chain.State {
	st := sc.shards[s].state
	st.Prime(chain.HandleOf(id), sc.address(id))
	return st
}

// hashShard is the fallback placement: the repo's one shard-hash — the
// 64-bit FNV-1a fold of partition.Hash — over the 20 address bytes, so the
// chain's fallback and the partition layer's hashing method can never
// drift (TestHashShardMatchesPartition pins the delegation).
func hashShard(addr types.Address, k int) int {
	return partition.Hash{}.ShardOfBytes(addr[:], k)
}

// emission is one receipt headed for a destination shard.
type emission struct {
	dst int
	r   Receipt
}

// effects collects the side effects of one unit of work — a receipt
// settlement or a transaction — so the serial and parallel engines can run
// the identical item code and differ only in when effects land: applied
// immediately after the item (serial), or buffered and merged at the next
// barrier in item order (parallel).
type effects struct {
	out   []emission
	stats Stats
}

func (e *effects) emit(dst int, r Receipt) { e.out = append(e.out, emission{dst, r}) }

// reset empties e for the next item, keeping the emission buffer.
func (e *effects) reset() { e.out, e.stats = e.out[:0], Stats{} }

// applyEffects lands one item's buffered effects: emissions are appended
// to the owning shard's per-destination outbox, stat deltas to the chain
// counters. It always runs on the coordinator in canonical item order —
// serially inline, at the barrier merge in the parallel engine — which is
// what lets the fault plane assign receipt IDs here: the assignment order
// (and so every seeded delivery decision keyed on an ID) is identical for
// both engines and across repeated runs.
func (sc *ShardChain) applyEffects(src int, eff *effects) {
	sh := sc.shards[src]
	for _, em := range eff.out {
		r := em.r
		if r.ToID == 0 {
			r.ToID = chain.HandleOf(sc.ID(r.To)) // registered by the barrier's commitHomes
		}
		if sc.cfg.Fault != nil && r.ID == 0 {
			sc.nextReceiptID++
			r.ID = sc.nextReceiptID
		}
		sh.outbox[em.dst] = append(sh.outbox[em.dst], r)
	}
	sc.stats.add(eff.stats)
	if sc.blockDelta != nil {
		sc.blockDelta[src].add(eff.stats)
	}
}

// homes is an engine's view of the home table during a phase. The serial
// engine commits first-sight placements immediately; parallel workers
// (record mode) resolve them read-only and remember the pairs so the
// coordinator can commit them at the barrier.
type homes struct {
	sc     *ShardChain
	record bool
	seen   []homePair
}

// homePair is one first-sight placement a worker resolved: of account id,
// or, when fresh, of an address the registry has not seen.
type homePair struct {
	id    uint64
	addr  types.Address
	fresh bool
	shard int
}

// of returns account id's home.
func (h *homes) of(id uint64) int {
	if !h.record {
		return h.sc.HomeOf(id)
	}
	if s, ok := h.sc.Known(id); ok {
		return s
	}
	s := h.sc.resolveHome(id)
	h.seen = append(h.seen, homePair{id: id, shard: s})
	return s
}

// ofAddr is of for an address that arrives without an ID (an EVM call
// target): it returns the address's handle and home. An address the
// registry has not seen is homed by the hash fallback, since the
// assignment knows accounts only by ID; the serial engine registers it at
// once, while a worker, which never writes the registry, returns a zero
// handle and leaves the registration to the barrier.
func (h *homes) ofAddr(addr types.Address) (chain.Handle, int) {
	if id, ok := h.sc.ids.Lookup(addr); ok {
		return chain.HandleOf(id), h.of(id)
	}
	s := hashShard(addr, h.sc.cfg.K)
	if h.record {
		h.seen = append(h.seen, homePair{addr: addr, fresh: true, shard: s})
		return 0, s
	}
	id := h.sc.ID(addr)
	h.sc.setHome(id, s)
	return chain.HandleOf(id), s
}

// commitHomes lands first-sight resolutions recorded by parallel workers,
// registering fresh addresses in the order they were met. An account may
// have been resolved by several workers (same pure value); existing
// entries win.
func (sc *ShardChain) commitHomes(pairs []homePair) {
	for _, p := range pairs {
		id := p.id
		if p.fresh {
			id = sc.ID(p.addr)
		}
		if _, ok := sc.Known(id); !ok {
			sc.setHome(id, p.shard)
		}
	}
}

// remoteCall is the body of every RemoteHook: the reaction to an internal
// call from shard s whose callee `to` may live elsewhere. Under
// ModelReceipts the call is diverted into a cross-shard receipt. Under
// ModelMigration the callee is brought to the executing shard and the call
// continues locally — never a receipt, matching the model's contract that
// every remote participant's state is migrated; that is safe because a
// ModelMigration chain only ever runs the serial engine (see Step).
func (sc *ShardChain) remoteCall(s int, h *homes, eff *effects, from, to types.Address, value evm.Word, input []byte) bool {
	toID, dst := h.ofAddr(to)
	if dst == s {
		return false // local: execute normally
	}
	if sc.cfg.Model == ModelMigration {
		sc.migrateCallee(toID.ID(), dst, s, eff)
		return false // callee is local now: execute normally
	}
	eff.emit(dst, Receipt{
		From: from, To: to, ToID: toID, Value: value,
		Input: append([]byte(nil), input...),
		Born:  sc.clock,
	})
	eff.stats.Messages++
	return true
}

// hookFor returns a RemoteHook for internal calls that leave shard s, bound
// to a worker's own home view and effects buffer (the parallel engine).
func (sc *ShardChain) hookFor(s int, h *homes, eff *effects) evm.RemoteHook {
	return func(from, to types.Address, value evm.Word, input []byte) bool {
		return sc.remoteCall(s, h, eff, from, to, value, input)
	}
}

// serialRemote is the serial engine's RemoteHook, bound once as itemHook:
// what hookFor captures it reads from the per-item fields.
func (sc *ShardChain) serialRemote(from, to types.Address, value evm.Word, input []byte) bool {
	return sc.remoteCall(sc.itemShard, &sc.itemHomes, &sc.itemEff, from, to, value, input)
}

// migrateCallee brings an internal call's remote callee to the executing
// shard exec: a materialised callee migrates with its full state; one that
// has no state anywhere is simply re-homed (moving nothing would fabricate
// an empty account and count a phantom migration, as MigrateAccount also
// refuses to do). Serial contexts only.
func (sc *ShardChain) migrateCallee(to uint64, calleeHome, exec int, eff *effects) {
	if sc.primed(calleeHome, to).Exist(sc.address(to)) {
		sc.migrateInto(to, calleeHome, exec, &eff.stats)
	} else {
		sc.setHome(to, exec)
	}
}

// settleOne applies one receipt on shard s. Receipts are routed to the
// target's home shard at emit time, but the home can change while the
// receipt is in flight (an externally driven MigrateAccount or Rehome
// between emission and delivery); settling on the stale shard would strand
// the value on a shard that is no longer — or never was — the account's
// home, resurrecting exactly the ghost state migration purges. So delivery
// re-checks the home and forwards the receipt (one more message, one more
// block of latency), like any routed settlement layer.
func (sc *ShardChain) settleOne(s int, r Receipt, h *homes, eff *effects, hook evm.RemoteHook) {
	// Idempotence under redelivery: each delivery hop carries a unique ID,
	// and the shard's seen journal suppresses a re-delivered hop before any
	// effect — including the forward below, or a duplicate would fork into
	// two fresh-ID deliveries downstream that no later dedup could relate.
	// Workers touch only their own shard's journal, so no lock is needed.
	if sc.cfg.Fault != nil && r.ID != 0 {
		if _, dup := sc.shards[s].seen[r.ID]; dup {
			sc.cfg.Fault.Metrics.DupsSuppressed.Add(1)
			return
		}
		sc.shards[s].seen[r.ID] = sc.clock
	}
	if home := h.of(r.ToID.ID()); home != s {
		fwd := r
		// A forwarded receipt is a new delivery hop: it gets a fresh ID at
		// the barrier (a legitimate revisit after a home flip must not be
		// mistaken for a duplicate), but keeps its accumulated injected
		// delay so final settlement still subtracts all of it.
		fwd.ID = 0
		eff.emit(home, fwd)
		eff.stats.Messages++
		return
	}
	st := sc.shards[s].state
	st.Prime(r.ToID, r.To)
	st.AddBalance(r.To, r.Value)
	st.DiscardJournal()
	eff.stats.ReceiptsSettled++
	eff.stats.SettlementBlocks += int64(sc.clock - r.Born - r.Delay)
	// A receipt carrying input against a contract triggers its code —
	// the "continuation" of the cross-shard call.
	if code := st.GetCode(r.To); len(code) > 0 {
		vm := evm.New(st)
		vm.SetRemoteHook(hook)
		// Continuation gas is bounded; failures are absorbed (the value
		// has already moved, as in asynchronous designs).
		_, _, _ = vm.Call(r.From, r.To, evm.Word{}, r.Input, 2_000_000)
		st.DiscardJournal()
	}
}

// route is a transaction's endpoints by ID: its sender, and its target —
// the sender again for a creation. The target's home is where the
// transaction executes.
type route struct{ from, to uint64 }

// routeOf returns tx's route, registering any endpoint the transaction
// names by address only. Coordinator only.
func (sc *ShardChain) routeOf(tx *chain.Transaction) route {
	rt := route{from: sc.idOf(tx.FromID, tx.From)}
	rt.to = rt.from
	if !tx.IsCreate() {
		rt.to = sc.idOf(tx.ToID, *tx.To)
	}
	return rt
}

// idOf returns the ID handle h names, or addr's when h is zero.
func (sc *ShardChain) idOf(h chain.Handle, addr types.Address) uint64 {
	if h != 0 {
		return h.ID()
	}
	return sc.ID(addr)
}

// crossEmit is the receipts-model cross path, run on the sender's shard:
// the sender is debited and a receipt carrying the value and calldata is
// emitted; the target shard executes on settlement. Only the value is
// debited here (fee plumbing is omitted, see runLocal), so only the value
// is required — and a nonce failure is reported as what it is, matching
// the semantics of chain.ApplyTransactionInto.
func (sc *ShardChain) crossEmit(sender, exec int, tx *chain.Transaction, rt route, eff *effects, receipt *chain.Receipt) {
	// Nothing executes, so the trace is empty; its backing array stays with
	// the receipt for the next transaction that does execute in this slot.
	*receipt = chain.Receipt{Traces: receipt.Traces[:0]}
	st := sc.shards[sender].state
	st.Prime(chain.HandleOf(rt.from), tx.From)
	if st.GetNonce(tx.From) != tx.Nonce {
		eff.stats.Failed++
		receipt.Err = chain.ErrNonceMismatch
		return
	}
	if st.GetBalance(tx.From).Cmp(tx.Value) < 0 {
		eff.stats.Failed++
		receipt.Err = chain.ErrInsufficientFunds
		return
	}
	st.SubBalance(tx.From, tx.Value)
	st.SetNonce(tx.From, tx.Nonce+1)
	st.DiscardJournal()
	eff.emit(exec, Receipt{
		From: tx.From, To: *tx.To, ToID: chain.HandleOf(rt.to), Value: tx.Value,
		Input: append([]byte(nil), tx.Data...),
		Born:  sc.clock,
	})
	eff.stats.Messages++
	eff.stats.CrossTxs++
	receipt.Success = true
}

// runLocal executes tx on shard s with hook armed for internal calls that
// leave the shard, writing the outcome into *receipt. By the time a
// transaction reaches local execution it counts as local: receipts-model
// cross transactions took the crossEmit path, migration-model ones were
// made local by moving the sender first. The miner fee plumbing is omitted:
// shardchain measures message and migration costs, not fee flows.
func (sc *ShardChain) runLocal(s int, tx *chain.Transaction, hook evm.RemoteHook, eff *effects, receipt *chain.Receipt) {
	if err := chain.ApplyTransactionInto(sc.shards[s].state, tx, types.Address{}, hook, receipt); err != nil {
		eff.stats.Failed++
		receipt.Err = err // a rejected transaction's receipt holds only its error
		return
	}
	eff.stats.LocalTxs++
}

// runTxSerial executes one transaction with full serial semantics — the
// sender of a migration-model cross transaction migrates inline, as do
// remote callees of internal calls — writes its outcome into *receipt and
// applies its effects immediately. It is the whole per-transaction serial
// engine, and crash recovery's replay path under either engine.
func (sc *ShardChain) runTxSerial(tx *chain.Transaction, rt route, receipt *chain.Receipt) {
	h, eff := &sc.itemHomes, &sc.itemEff
	eff.reset()
	exec := h.of(rt.to)
	sender := h.of(rt.from)
	cross := sender != exec

	if sc.cfg.Model == ModelMigration && cross {
		// Move the sender's account to the executing shard, then run
		// locally.
		sc.migrateInto(rt.from, sender, exec, &eff.stats)
		cross = false
	}
	work := exec
	if cross { // ModelReceipts
		work = sender
		sc.crossEmit(sender, exec, tx, rt, eff, receipt)
	} else {
		sc.itemShard = exec
		sc.runLocal(exec, tx, sc.itemHook, eff, receipt)
	}
	sc.applyEffects(work, eff)
}

// Step executes one global block: it settles every shard's pending inbox,
// executes the given transactions, and delivers newly emitted receipts at
// the block barrier. Transactions execute on the home shard of their
// target (creation transactions on the sender's shard).
//
// The returned receipts, one per transaction, belong to the chain and are
// valid until the next Step, which rewrites them in place — call traces
// included (chain.ApplyTransactionInto). A caller that needs a receipt for
// longer copies what it needs before stepping again.
func (sc *ShardChain) Step(txs []*chain.Transaction) []*chain.Receipt {
	sc.clock++
	if sc.cfg.Fault != nil {
		sc.pruneSeen()
		if sc.blockDelta != nil {
			// blockDelta restarts with the durable point — it tracks only
			// what a crash in *this* block would discard.
			sc.journalVictims()
			for i := range sc.blockDelta {
				sc.blockDelta[i] = Stats{}
			}
		}
	}
	receipts := sc.receiptsFor(len(txs))
	routes := sc.routesOf(txs)
	// Only a receipts-model block fans out; a migration-model chain cannot
	// tell (the engines are byte-identical) and is faster serial.
	if sc.cfg.Parallel && sc.cfg.Model == ModelReceipts {
		sc.stepParallel(txs, routes, receipts)
	} else {
		sc.stepSerial(txs, routes, receipts)
	}
	for i := range sc.wal {
		sc.recoverShard(&sc.wal[i], txs, routes, receipts)
	}
	sc.exchangeOutboxes()
	return receipts
}

// receiptsFor returns n receipt slots for this Step's transactions. Slots
// keep whatever the last Step wrote — every engine path overwrites its
// slot whole, keeping only the trace's backing array — and a growing slab
// carries the old slots over, so the trace arrays survive growth too.
func (sc *ShardChain) receiptsFor(n int) []*chain.Receipt {
	if n > len(sc.slab) {
		sc.slab = append(sc.slab, make([]chain.Receipt, n-len(sc.slab))...)
		sc.receipts = sc.receipts[:0]
		for i := range sc.slab {
			sc.receipts = append(sc.receipts, &sc.slab[i])
		}
	}
	return sc.receipts[:n:n]
}

// routesOf returns the block's routes, in the chain's reused buffer. Both
// engines take every route before anything executes, so the IDs of
// endpoints named by address only register in transaction order whichever
// engine runs.
func (sc *ShardChain) routesOf(txs []*chain.Transaction) []route {
	sc.routes = sc.routes[:0]
	for _, tx := range txs {
		sc.routes = append(sc.routes, sc.routeOf(tx))
	}
	return sc.routes
}

// stepSerial is the reference engine: settle then execute, one item at a
// time in canonical order (shards ascending for settlement, transaction
// order for execution).
func (sc *ShardChain) stepSerial(txs []*chain.Transaction, routes []route, receipts []*chain.Receipt) {
	for i, sh := range sc.shards {
		sc.settleInboxSerial(i, sh)
	}
	for i, tx := range txs {
		sc.runTxSerial(tx, routes[i], receipts[i])
	}
}

// settleInboxSerial drains one shard's inbox. The inbox keeps its backing
// array for the next barrier: nothing appends to an inbox before the
// exchange that ends the block, and a Receipt's Input is its own
// allocation, so reusing the slots cannot reach a settled receipt.
func (sc *ShardChain) settleInboxSerial(i int, sh *shard) {
	inbox := sh.inbox
	sh.inbox = inbox[:0]
	sc.itemShard = i
	for _, r := range inbox {
		sc.itemEff.reset()
		sc.settleOne(i, r, &sc.itemHomes, &sc.itemEff, sc.itemHook)
		sc.applyEffects(i, &sc.itemEff)
	}
}

// exchangeOutboxes delivers every outbox into the destination inboxes at
// the block barrier, in canonical (source-shard, emission-order) order:
// shard dst's next inbox is the concatenation of outbox[src][dst] for src
// ascending, each in emission order. Both engines exchange identically, so
// inbox contents — and therefore every later settlement — match
// byte-for-byte. With message faults armed the exchange routes through
// the fault-aware channel instead (exchangeFaulty, fault.go).
func (sc *ShardChain) exchangeOutboxes() {
	if sc.cfg.Fault != nil && sc.cfg.Fault.HasMessageFaults() {
		sc.exchangeFaulty()
		return
	}
	for _, sh := range sc.shards {
		for dst, rs := range sh.outbox {
			if len(rs) == 0 {
				continue
			}
			sc.shards[dst].inbox = append(sc.shards[dst].inbox, rs...)
			sh.outbox[dst] = rs[:0] // delivered by value; keep the array
		}
	}
}

// migrate moves an account's full state between shards and re-homes it,
// counting against the chain totals.
func (sc *ShardChain) migrate(id uint64, from, to int) {
	sc.migrateInto(id, from, to, &sc.stats)
}

// migrateInto is migrate with an explicit stats sink, so per-item engines
// can buffer the counter deltas alongside the item's other effects.
//
// An address has state on at most one shard — every path that creates state
// for it does so on its home, and a migration purges the source — so moving
// the account is re-parenting it (chain.TransplantAccount): nothing is
// copied and no ghost stays behind whose nonce, code or stale slots could
// resurrect on a later round-trip. When the invariant does not hold — the
// destination already has an account at the address (value settled there
// while the home pointed elsewhere), or the source has none (a never-funded
// sender) — the accounts are merged field by field as a transfer would
// carry them, and the source copy is purged entirely (DeleteAccount).
func (sc *ShardChain) migrateInto(id uint64, from, to int, stats *Stats) {
	addr := sc.address(id)
	src := sc.primed(from, id)
	dst := sc.shards[to].state

	slots, moved := chain.TransplantAccount(src, dst, addr)
	if !moved {
		dst.CreateAccount(addr)
		dst.AddBalance(addr, src.GetBalance(addr))
		dst.SetNonce(addr, src.GetNonce(addr))
		if code := src.GetCode(addr); len(code) > 0 {
			dst.SetCode(addr, append([]byte(nil), code...))
		}
		slots = chain.CopyStorage(src, dst, addr)
		src.DeleteAccount(addr)
	}
	src.DiscardJournal()
	dst.DiscardJournal()

	sc.setHome(id, to)
	stats.Migrations++
	stats.MigratedSlots += int64(slots)
	stats.Messages++ // the state transfer itself
}

// MigrateAccount moves account id's state to shard `to` and re-homes it —
// the externally driven form of migration a repartitioner uses to realise
// a new placement under ModelMigration. Accounts the chain has never seen
// are pre-homed on `to` without a transfer (there is no state to move
// yet), and a move to the current home is a no-op. It reports whether
// state moved.
func (sc *ShardChain) MigrateAccount(id uint64, to int) (bool, error) {
	if to < 0 || to >= sc.cfg.K {
		return false, fmt.Errorf("shardchain: migrate account %d: shard %d out of range [0,%d)", id, to, sc.cfg.K)
	}
	from, known := sc.Known(id)
	if !known || from == to {
		sc.setHome(id, to)
		return false, nil
	}
	// A homed account whose state never materialised has nothing to move:
	// re-home it without a transfer. Running migrate() here would fabricate
	// an empty account on the destination (CreateAccount) and count a
	// phantom migration and message for moving nothing.
	if !sc.primed(from, id).Exist(sc.address(id)) {
		sc.setHome(id, to)
		return false, nil
	}
	sc.migrate(id, from, to)
	return true, nil
}

// Rehome redirects account id's future placement to shard `to` without
// moving state — the receipts-model reaction to a repartition, where
// existing state stays put and only not-yet-materialised accounts follow
// the new assignment. It reports whether the home changed; an account
// whose state already exists on its current home shard is left alone
// (re-homing it would strand its balance, nonce and storage).
func (sc *ShardChain) Rehome(id uint64, to int) (bool, error) {
	if to < 0 || to >= sc.cfg.K {
		return false, fmt.Errorf("shardchain: rehome account %d: shard %d out of range [0,%d)", id, to, sc.cfg.K)
	}
	from, known := sc.Known(id)
	if known && sc.primed(from, id).Exist(sc.address(id)) {
		return false, nil
	}
	if known && from == to {
		return false, nil
	}
	sc.setHome(id, to)
	return true, nil
}

// PendingReceipts counts cross-shard receipts still in flight (undelivered
// outboxes, unsettled inboxes, and receipts held by the fault-aware
// delivery channel — dropped-awaiting-retry, delayed, or pending
// duplicates). Drive Step(nil) until it reaches zero to fully settle a
// run; the fault plane's at-least-once delivery bound (a fixed attempt
// count with capped backoff) guarantees the count reaches zero in bounded
// blocks.
func (sc *ShardChain) PendingReceipts() int {
	n := len(sc.flights)
	for _, sh := range sc.shards {
		n += len(sh.inbox)
		for _, rs := range sh.outbox {
			n += len(rs)
		}
	}
	return n
}
