// Package opsim is the operational co-simulation bridge: it replays a
// generated workload's interaction records through a live
// shardchain.ShardChain while a sim.Simulator consumes the same records in
// lockstep. The simulator supplies placement (first-seen accounts are homed
// by its method's rule) and fires its repartitioning policy; every
// repartition is translated into real work on the chain — a batch of state
// migrations under shardchain.ModelMigration, or a re-homing of future
// placements under shardchain.ModelReceipts, where existing state stays put
// and only accounts that have not materialised yet follow the new
// assignment.
//
// The result is the measurement layer the paper declined to build: for each
// of the five methods under both multi-shard models, the abstract edge-cut
// curve of Fig. 3 gains an operational twin — cross-shard messages,
// settlement latency, migrated storage slots and failed transactions per
// four-hour window.
//
// Fidelity notes: records are replayed as plain value transfers (contract
// code is not installed, so receipts settle value without continuations),
// values are clamped so a flat per-account funding covers any history, and
// contracts materialise their end-of-history storage footprint as synthetic
// slots so migration costs are visible in moved state, not just move
// counts.
package opsim

import (
	"encoding/binary"
	"fmt"
	"time"

	"ethpart/internal/chain"
	"ethpart/internal/directory"
	"ethpart/internal/evm"
	"ethpart/internal/fault"
	"ethpart/internal/graph"
	"ethpart/internal/shardchain"
	"ethpart/internal/sim"
	"ethpart/internal/trace"
	"ethpart/internal/types"
)

// maxValue clamps per-record transfer values so Config.fund always covers a
// sender's lifetime of transfers.
const maxValue = 1_000_000

// Config parameterises a co-simulation run.
type Config struct {
	// Sim is the simulator configuration: method, shard count, window and
	// repartitioning policy. Its Window also paces the operational windows
	// so the two curves align (zero fields take the simulator defaults).
	// Its On* hooks must be nil: Run installs them to drive the chain and
	// the directory, and rejects a caller-set one.
	Sim sim.Config
	// Model is the multi-shard handling class of the live chain.
	Model shardchain.Model
	// MaxSettleSteps bounds the empty blocks stepped at the end of the run
	// to drain in-flight receipts (zero → 64).
	MaxSettleSteps int
	// Parallel runs the live chain on shardchain's parallel per-shard
	// engine (receipts model; a migration-model run takes the serial
	// engine). The replayed results (windows, totals) are byte-identical to
	// the serial engine's; only the timing fields differ.
	Parallel bool
	// Fault, when non-nil, arms the deterministic fault-injection plane:
	// the chain takes the schedule's crash/message faults, and the
	// publisher commits through a fault.FlakyDirectory injecting stalled
	// waves and transient commit failures. Chain blocks that pin an epoch
	// while a wave is stalled are counted as stale in the fault metrics.
	Fault *fault.Injector
	// Capture computes the convergence artifacts (StateRoots, HomesHash,
	// ReceiptsHash) at end of run — the byte-identity evidence chaos
	// scenarios compare against the fault-free oracle. Off by default:
	// capturing hashes every shard's state, which golden tests that
	// DeepEqual whole Results neither need nor want to pay for.
	Capture bool
	// DirCommitter, when non-nil, wraps the run's directory in a caller-
	// supplied committer — the seam the networked serving tier uses to
	// splice a dirserve.Fanout under the publisher.
	// With Fault also armed the chain is Publisher → FlakyDirectory →
	// DirCommitter → Directory, so replicas receive exactly the landed
	// commit sequence with real epoch numbers. The caller owns the
	// committer's lifecycle (e.g. closing fan-out feeds after Run returns).
	DirCommitter func(d *directory.Directory) (directory.Committer, error)

	// resolveFromAssignment is the byte-identity tests' reference path:
	// homes resolve straight from the simulator's live assignment instead
	// of through the placement directory (no directory is built, so Fault's
	// directory plane and DirCommitter do nothing).
	resolveFromAssignment bool
	// fund is the balance credited to every first-seen account (zero →
	// 1<<50, ample for any history of maxValue-clamped transfers); the
	// overdraft test lowers it.
	fund evm.Word
}

func (c Config) withDefaults() Config {
	if c.Sim.K <= 0 {
		c.Sim.K = 2
	}
	if c.Sim.Window <= 0 {
		c.Sim.Window = 4 * time.Hour
	}
	if c.fund.IsZero() {
		c.fund = evm.WordFromUint64(1 << 50)
	}
	if c.MaxSettleSteps <= 0 {
		c.MaxSettleSteps = 64
	}
	return c
}

// WindowStat is one operational data point: what the chain did during one
// metric window, alongside the simulator's dynamic cut for the same window.
type WindowStat struct {
	Start time.Time
	// Stats is the window's delta of the chain's counters.
	shardchain.Stats
	// Interactions is the number of records replayed in the window.
	Interactions int64
	// DynamicCut is the simulator's cross-shard fraction for the same
	// window — the abstract curve the operational numbers shadow.
	DynamicCut float64
	// Shards is the number of chain lanes the window was served with —
	// constant without the autoscaler, the shards-provisioned-over-time
	// series with it.
	Shards int
}

// Result is the outcome of a co-simulation run.
type Result struct {
	Method sim.Method
	Model  shardchain.Model
	K      int
	// Windows are the per-window operational stats, aligned with Sim.Windows.
	Windows []WindowStat
	// Totals are the chain's whole-run counters.
	Totals shardchain.Stats
	// Replayed counts the records driven through the chain.
	Replayed int64
	// WaveMigrations/WaveMigratedSlots isolate the share of Totals'
	// migration cost caused by repartition waves (applyMoves batches) and
	// merge drains, as opposed to the traffic-driven sender/callee
	// migrations the migration model performs inline. Under ModelReceipts
	// they are zero except for merge resizes, whose decommissioned lanes
	// must evacuate state regardless of the multi-shard model.
	WaveMigrations    int64
	WaveMigratedSlots int64
	// Sim is the lockstep simulator's result (the dynamic-cut curves).
	Sim *sim.Result
	// Sweeps are the simulator's per-window decay-sweep observations
	// (live-graph size, sweep wall time, whether cut maintenance skipped),
	// parallel to Sim.Windows. SweepNanos entries are measurement, not
	// simulation state — like StepNanos, they vary between identical runs.
	Sweeps []sim.SweepObs
	// Parallel echoes Config.Parallel.
	Parallel bool
	// DirectoryStats summarises the placement directory at end of run
	// (nil on the tests' assignment-resolved reference path). It is
	// reporting, not replayed state: both paths agree on every other field.
	DirectoryStats *directory.Stats
	// DirectoryView is the directory's final published snapshot, taken
	// after stalled waves drain — the in-process oracle a networked chaos
	// run cross-checks replica views against.
	DirectoryView *directory.Snapshot
	// Blocks counts the blocks stepped (including the settle-drain steps)
	// and StepNanos the wall-clock spent inside ShardChain.Step. They are
	// measurement, not simulation state: two runs of the same trace agree
	// on every window and total but not on StepNanos.
	Blocks    int64
	StepNanos int64
	// Convergence artifacts, computed only with Config.Capture: per-shard
	// final state roots, a hash over every known account's home, and a
	// running hash over every transaction receipt in replay order. A
	// faulty run converges iff all three (plus Totals and Windows) equal
	// the fault-free oracle's.
	StateRoots   []types.Hash
	HomesHash    types.Hash
	ReceiptsHash types.Hash
	// Fault is the injector's metrics snapshot (nil without Config.Fault).
	Fault *fault.MetricsSnapshot
}

// MsPerBlock returns the mean wall-clock per block step in milliseconds.
func (r *Result) MsPerBlock() float64 {
	if r.Blocks == 0 {
		return 0
	}
	return float64(r.StepNanos) / float64(r.Blocks) / 1e6
}

// ShardWindows returns Σ over windows of the shards provisioned in that
// window — the run's capacity cost (windows × k on a fixed fleet, the
// autoscaler's capacity series summed otherwise).
func (r *Result) ShardWindows() int64 {
	var n int64
	for _, w := range r.Windows {
		n += int64(w.Shards)
	}
	return n
}

// FinalShards returns the shard count the run ended on (K when no window
// closed).
func (r *Result) FinalShards() int {
	if n := len(r.Windows); n > 0 {
		return r.Windows[n-1].Shards
	}
	return r.K
}

// PeakWindowLoad returns the largest per-shard window load any shard saw —
// the saturation the settlement metrics respond to.
func (r *Result) PeakWindowLoad() int64 {
	var peak int64
	for _, w := range r.Sim.Windows {
		peak = max(peak, w.PeakLoad)
	}
	return peak
}

// move is one collected assignment change from a repartition batch.
type move struct {
	v  graph.VertexID
	to int
}

// runner is the control stage of one co-simulation. A run is two pipelined
// stages (DESIGN §7): the control stage replays every record through the
// simulator, publishes placements to the directory and keeps the window
// clock; the chain stage (x) owns the ShardChain and executes the ops the
// control stage hands it, a batch per sealed block, each op against the
// directory snapshot that was current when it was enqueued. The simulator
// never reads chain state and the chain reads placement only through those
// immutable snapshots, so the control stage runs ahead while blocks execute.
type runner struct {
	cfg Config
	gt  *sim.GeneratedTrace
	s   *sim.Simulator

	// pendingMoves collects the current wave's OnMove reports until they are
	// enqueued for the chain stage.
	pendingMoves []move

	// pub/dir are the serving directory fed by the simulator's callbacks
	// (nil on the assignment-resolved reference path); pubErr carries a
	// publisher failure out of the void callbacks. flaky is the
	// fault-injecting committer wedged between them when Config.Fault is
	// armed. resizeErr likewise carries a failed resize out of the void
	// OnResize callback.
	pub       *directory.Publisher
	dir       *directory.Directory
	flaky     *fault.FlakyDirectory
	pubErr    error
	resizeErr error

	// lagging tracks whether the previous block pinned a stale epoch, so
	// re-pins (lag returning to zero) can be counted.
	lagging bool

	// curBlock is the block the latest record belongs to; open reports that
	// records have been enqueued since the last seal.
	curBlock uint32
	open     bool
	winStart time.Time
	started  bool

	// cur is the batch being filled; q is the queue to the chain stage, nil
	// on the reference path, where every batch runs inline as it is handed
	// off because the live assignment it resolves through cannot cross
	// goroutines.
	cur []op
	q   *queue
	x   *executor
	res *Result
}

// queueDepth bounds the sealed batches waiting for the chain stage. The
// control stage blocks when the queue is full; nothing is dropped. The
// depth is the chain work buffered to cover a repartition wave, during
// which the control stage enqueues nothing; each queued op pins the epoch
// it carries, so a deeper queue also holds more copy-on-write pages
// (ops-bridge, seed 1: the chain stage idles 2.1 s of a 7.3 s pass at
// depth 16, 1.2 s of 6.3 s at 64, 0.9 s of 6.3 s at 256, which costs
// 40–50 MiB more peak memory than the serial bridge).
const queueDepth = 64

// queue joins the stages: work carries sealed batches to the chain stage,
// free returns executed ones for reuse, ack releases a control stage waiting
// on a resize barrier, and done closes when the chain stage exits, with err
// saying why if it stopped early.
type queue struct {
	work, free chan []op
	ack        chan struct{}
	done       chan struct{}
	err        error
}

// opKind names one unit of chain work.
type opKind uint8

const (
	opRecord      opKind = iota // replay one record as a transfer
	opMoves                     // carry a repartition onto the chain
	opCloseWindow               // snapshot the window's counters
	opStep                      // execute the sealed block
	opSettle                    // drain in-flight receipts with empty blocks
	opBarrier                   // run a resize while the control stage waits
)

// op is one unit of chain work. snap is the directory view that was current
// when the control stage enqueued it (nil on the reference path); every
// resolution the op makes goes through it. The other fields are per kind.
type op struct {
	kind     opKind
	snap     *directory.Snapshot
	from, to uint64       // opRecord: vertex IDs
	value    uint64       // opRecord: clamped transfer value
	moves    []move       // opMoves: the wave's moves, handed over
	start    time.Time    // opCloseWindow
	fn       func() error // opBarrier
}

// A batch is one hand-off: the ops enqueued since the previous one, ending
// in a block's step or a barrier. Batches are recycled through the queue's
// free list; recycle empties one for reuse, dropping its snapshot and
// closure references so a recycled batch pins nothing.
func recycle(b []op) []op {
	clear(b)
	return b[:0]
}

// executor is the chain stage, and the only code that touches the
// ShardChain during Run.
type executor struct {
	cfg *Config
	gt  *sim.GeneratedTrace
	sc  *shardchain.ShardChain
	res *Result

	// snap is the executing op's directory view; live resolves from the
	// simulator's assignment instead on the reference path.
	snap *directory.Snapshot
	live func(graph.VertexID) (int, bool)

	// The current block's transactions are built in place in pendingTxs,
	// their recipients in the parallel pendingTo; flush links
	// Transaction.To and fills blockTxs with pointers only once the block is
	// complete (appending may move the slabs). All three are truncated and
	// reused every block: nothing keeps a *Transaction past Step — the
	// engines copy out what a receipt or an emission needs, and crash
	// recovery, the only other reader, runs inside Step.
	pendingTxs []chain.Transaction
	pendingTo  []types.Address
	blockTxs   []*chain.Transaction

	seen   []bool   // vertex ID → funded/materialised on the chain
	nonces []uint64 // vertex ID → next transaction nonce

	lastStats shardchain.Stats
	// settled counts the blocks the final settle op stepped, so the control
	// stage can observe their pins after joining.
	settled int
	// receiptsHash accumulates the replay-order receipt hash (Capture).
	receiptsHash types.Hash
}

// Run replays gt through a live sharded chain under cfg.
func Run(gt *sim.GeneratedTrace, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Sim.StorageSlots == nil {
		cfg.Sim.StorageSlots = gt.StorageSlots
	}
	r := &runner{cfg: cfg, gt: gt}
	r.x = &executor{
		cfg:    &r.cfg,
		gt:     gt,
		seen:   make([]bool, gt.Registry.Len()),
		nonces: make([]uint64, gt.Registry.Len()),
	}
	// Run owns the simulator's hooks: they are how placements, moves and
	// resizes reach the chain and the directory, so a caller-set one has
	// nowhere to go.
	simCfg := cfg.Sim
	for _, hook := range []struct {
		name string
		set  bool
	}{
		{"OnPlace", simCfg.OnPlace != nil},
		{"OnMove", simCfg.OnMove != nil},
		{"OnRepartition", simCfg.OnRepartition != nil},
		{"OnRetire", simCfg.OnRetire != nil},
		{"OnResize", simCfg.OnResize != nil},
	} {
		if hook.set {
			return nil, fmt.Errorf("opsim: Config.Sim.%s is set; Run installs the simulator hooks itself", hook.name)
		}
	}
	simCfg.OnMove = func(v graph.VertexID, from, to int) {
		r.pendingMoves = append(r.pendingMoves, move{v, to})
	}
	simCfg.OnResize = func(at time.Time, oldK, newK, moves int) {
		if r.resizeErr == nil {
			r.resizeErr = r.resize(oldK, newK, moves)
		}
	}
	scCfg := shardchain.Config{
		K: cfg.Sim.K, Model: cfg.Model, Parallel: cfg.Parallel,
		Fault: cfg.Fault,
	}
	if cfg.resolveFromAssignment {
		r.x.live = func(v graph.VertexID) (int, bool) { return r.s.Assignment().ShardOf(v) }
	} else {
		// The simulator's placement stream publishes into the serving
		// directory and every home resolves through its published
		// snapshots: placements flush per record, a repartition's move set
		// commits as one epoch flip, retirements spill to the cold tier,
		// and every op resolves through the epoch it carries (assignOf).
		// With a fault plane armed the publisher commits through the flaky
		// committer, which injects stalled waves and transient failures.
		r.dir = directory.New(directory.Config{})
		var committer directory.Committer = r.dir
		if cfg.DirCommitter != nil {
			c, err := cfg.DirCommitter(r.dir)
			if err != nil {
				return nil, fmt.Errorf("opsim: directory committer: %w", err)
			}
			committer = c
		}
		if cfg.Fault != nil {
			r.flaky = fault.NewFlakyCommitter(r.dir, committer, cfg.Fault)
			committer = r.flaky
		}
		r.pub = directory.NewPublisher(committer)
		r.pub.SetShards(cfg.Sim.K)
		// Merge waves remap retired sticky assignments too; routing those
		// through the tier-preserving SetCold lane keeps dead history out
		// of the directory's hot tier.
		r.pub.SetLive(func(v graph.VertexID) bool { return r.s.Graph().HasVertex(v) })
		simCfg.OnPlace = r.pub.OnPlace
		simCfg.OnMove = func(v graph.VertexID, from, to int) {
			r.pendingMoves = append(r.pendingMoves, move{v, to})
			r.pub.OnMove(v, from, to)
		}
		simCfg.OnRepartition = func(_ time.Time, moves int) {
			if err := r.pub.OnRepartition(moves); err != nil && r.pubErr == nil {
				r.pubErr = err
			}
		}
		simCfg.OnRetire = r.pub.OnRetire
		r.q = &queue{
			work: make(chan []op, queueDepth),
			// Room for every batch that can exist — queued, executing and
			// being filled — so returning one never blocks.
			free: make(chan []op, queueDepth+2),
			ack:  make(chan struct{}, 1), // one barrier at a time
			done: make(chan struct{}),
		}
	}
	s, err := sim.New(simCfg)
	if err != nil {
		return nil, fmt.Errorf("opsim: %w", err)
	}
	r.s = s
	sc, err := shardchain.New(scCfg, nil, r.x.assignOf)
	if err != nil {
		return nil, fmt.Errorf("opsim: %w", err)
	}
	r.x.sc = sc
	r.res = &Result{Method: simCfg.Method, Model: cfg.Model, K: cfg.Sim.K, Parallel: cfg.Parallel}
	r.x.res = r.res
	return r.run()
}

func (r *runner) run() (*Result, error) {
	if r.q != nil {
		go r.x.serve(r.q)
	}
	err := r.replay()
	if r.q != nil {
		// Join the chain stage: it finishes what is queued and exits.
		close(r.q.work)
		<-r.q.done
		if err == nil {
			err = r.q.err
		}
	}
	if err != nil {
		return nil, err
	}
	// The final settle blocks were sealed after the last record; nothing
	// has committed since, so each observes the pin it would have at seal.
	for range r.x.settled {
		r.observePin()
	}
	// Land any wave flips still stalled at end of run; every stall ends.
	if _, err := r.drainStalls(); err != nil {
		return nil, fmt.Errorf("opsim: %w", err)
	}
	r.res.Totals = r.x.sc.Stats()
	r.res.Sim = r.s.Finish()
	r.res.Sweeps = r.s.Sweeps()
	if r.dir != nil {
		st := r.dir.Stats()
		r.res.DirectoryStats = &st
		r.res.DirectoryView = r.dir.Current()
	}
	if r.cfg.Capture {
		r.x.captureArtifacts()
	}
	if r.cfg.Fault != nil {
		snap := r.cfg.Fault.Metrics.Snapshot()
		r.res.Fault = &snap
	}
	// Join the simulator's dynamic-cut curve onto the operational windows.
	cuts := make(map[int64]float64, len(r.res.Sim.Windows))
	for _, w := range r.res.Sim.Windows {
		cuts[w.Start.Unix()] = w.DynamicCut
	}
	for i := range r.res.Windows {
		r.res.Windows[i].DynamicCut = cuts[r.res.Windows[i].Start.Unix()]
	}
	return r.res, nil
}

// replay is the control stage's whole run: every record, then the last
// block, the settle drain and the final window.
func (r *runner) replay() error {
	for _, rec := range r.gt.Records {
		if err := r.processRecord(rec); err != nil {
			return err
		}
	}
	if err := r.seal(); err != nil {
		return err
	}
	// Drain in-flight receipts with empty blocks; their settlements land in
	// the final window. The fault channel's retry bound keeps this finite,
	// but a fault-armed caller should budget MaxSettleSteps for the
	// injected backoff chains.
	r.enqueue(op{kind: opSettle})
	if r.started {
		r.enqueue(op{kind: opCloseWindow, start: r.winStart})
	}
	return r.handOff()
}

// processRecord advances the control stage by one interaction record.
func (r *runner) processRecord(rec trace.Record) error {
	t := time.Unix(rec.Time, 0).UTC()
	if !r.started {
		r.winStart = t.Truncate(r.cfg.Sim.Window)
		r.started = true
	}
	// A record in a new block seals the previous one; a record in a new
	// window then closes the window (block timestamps are per-block, so a
	// window boundary always falls on a block boundary).
	if rec.Block != r.curBlock {
		if err := r.seal(); err != nil {
			return err
		}
		r.curBlock = rec.Block
	}
	for t.Sub(r.winStart) >= r.cfg.Sim.Window {
		r.enqueue(op{kind: opCloseWindow, start: r.winStart})
		r.winStart = r.winStart.Add(r.cfg.Sim.Window)
	}

	// Lockstep: the simulator sees the record first — it places first-seen
	// vertices and may fire its repartitioning policy (or the autoscaler)
	// at a window boundary.
	if err := r.s.Process(rec); err != nil {
		return fmt.Errorf("opsim: %w", err)
	}
	if r.resizeErr != nil {
		return r.resizeErr
	}
	if r.pub != nil {
		// Publish the record's placements (and any buffered retirements)
		// before the chain resolves homes; waves already committed inside
		// Process via OnRepartition.
		if err := r.pub.Flush(); err != nil && r.pubErr == nil {
			r.pubErr = err
		}
		if r.pubErr != nil {
			return fmt.Errorf("opsim: publishing to directory: %w", r.pubErr)
		}
	}
	if len(r.pendingMoves) > 0 {
		r.enqueue(op{kind: opMoves, moves: r.pendingMoves})
		r.pendingMoves = nil
	}
	// Then the chain replays the same record as a transaction.
	r.enqueue(op{kind: opRecord, from: rec.From, to: rec.To, value: min(rec.Value, maxValue)})
	r.open = true
	return nil
}

// current is the directory view an op enqueued now resolves through.
func (r *runner) current() *directory.Snapshot {
	if r.dir == nil {
		return nil
	}
	return r.dir.Current()
}

// enqueue appends o to the batch being filled, pinned to the current view.
func (r *runner) enqueue(o op) {
	o.snap = r.current()
	r.cur = append(r.cur, o)
}

// seal ends the open block: the fault plane observes the epoch it pins and
// the batch goes to the chain stage, ending in the block's step.
func (r *runner) seal() error {
	if !r.open {
		return nil
	}
	r.open = false
	r.observePin()
	r.enqueue(op{kind: opStep})
	return r.handOff()
}

// observePin is the fault plane's view of one block's pinned epoch: a block
// sealed while wave flips are stalled serves bounded-stale placement
// (counted, with the lag high-water mark), and the first block after the
// flips land is the re-pin.
func (r *runner) observePin() {
	if r.flaky == nil {
		return
	}
	m := &r.cfg.Fault.Metrics
	if pending := r.flaky.PendingWaves(); pending > 0 {
		m.StaleBlocks.Add(1)
		m.MaxLag(uint64(pending))
		r.lagging = true
	} else if r.lagging {
		m.RePins.Add(1)
		r.lagging = false
	}
}

// handOff gives the batch being filled to the chain stage: inline on the
// reference path, through the queue otherwise, blocking while it is full.
// Once the chain stage has stopped on an error, that error is returned.
func (r *runner) handOff() error {
	b := r.cur
	if r.q == nil {
		err := r.x.run(b)
		r.cur = recycle(b)
		return err
	}
	select {
	case <-r.q.done:
		return r.q.err
	default:
	}
	select {
	case r.q.work <- b:
	case <-r.q.done:
		return r.q.err
	}
	select {
	case r.cur = <-r.q.free:
	default:
		r.cur = nil
	}
	return nil
}

// resize is the simulator's OnResize: a barrier. Everything enqueued so far
// and then the resize run on the chain stage while the control stage waits,
// so the resize may call back into the control stage — the directory flip,
// its settle blocks' pins, the stalled waves — exactly as if it ran inline.
func (r *runner) resize(oldK, newK, moves int) error {
	pending := r.pendingMoves
	r.pendingMoves = nil
	r.enqueue(op{kind: opBarrier, fn: func() error {
		if err := r.x.applyResize(oldK, newK, moves, pending, r); err != nil {
			return fmt.Errorf("opsim: applying resize: %w", err)
		}
		if r.q != nil {
			r.q.ack <- struct{}{}
		}
		return nil
	}})
	if err := r.handOff(); err != nil || r.q == nil {
		return err
	}
	select {
	case <-r.q.ack:
		return nil
	case <-r.q.done:
		return r.q.err
	}
}

// publishResize commits a resize's directory flip — the new shard count and
// the wave's remaps as one epoch — and returns the view to resolve through
// from then on. Barrier only.
func (r *runner) publishResize(newK, moves int) (*directory.Snapshot, error) {
	if r.pub != nil {
		if err := r.pub.OnResize(newK, moves); err != nil {
			return nil, err
		}
	}
	return r.current(), nil
}

// drainStalls lands every stalled wave flip and returns the view to resolve
// through from then on. Barrier or after the join only.
func (r *runner) drainStalls() (*directory.Snapshot, error) {
	if r.flaky != nil {
		if err := r.flaky.DrainStalls(); err != nil {
			return nil, err
		}
	}
	return r.current(), nil
}

// serve is the chain stage's goroutine: it executes batches in order until
// the queue closes or an op fails.
func (x *executor) serve(q *queue) {
	defer close(q.done)
	for b := range q.work {
		if err := x.run(b); err != nil {
			q.err = err
			return
		}
		q.free <- recycle(b)
	}
}

// run executes one batch, each op against the view it carries.
func (x *executor) run(b []op) error {
	for i := range b {
		o := &b[i]
		x.snap = o.snap
		var err error
		switch o.kind {
		case opRecord:
			err = x.record(o.from, o.to, o.value)
		case opMoves:
			err = x.applyMoves(o.moves)
		case opCloseWindow:
			x.closeWindow(o.start)
		case opStep:
			x.flush()
		case opSettle:
			for ; x.settled < x.cfg.MaxSettleSteps && x.sc.PendingReceipts() > 0; x.settled++ {
				x.step(nil)
			}
		case opBarrier:
			err = o.fn()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// applyResize bridges one autoscaler firing (sim.Config.OnResize) onto the
// chain and directory. It is a barrier op, run inside the simulator's
// Process call while the control stage waits, so it may call ctl for the
// directory's half of the resize. It runs at a window boundary — which
// always falls on a block boundary, so no transactions are pending and the
// chain sits between Steps.
//
// Split: the chain grows its lanes first (they spin up empty), then the
// directory commits the new shard count together with every wave remap as
// ONE epoch flip, then the remaps land on the chain. Readers either see the
// old k with old placements or the new k with new placements — never a
// tear.
//
// Merge: the directory flips first (count + remaps in one commit), so every
// later resolution already answers below newK. Then the wave's moves land;
// under ModelReceipts Rehome refuses accounts with materialised state, so a
// sweep force-migrates everything still homed on a dropped lane — the
// honest decommissioning cost the receipts model defers until a lane
// actually disappears. Settle-only blocks then drain in-flight receipts
// (bounded by MaxSettleSteps), stalled directory waves are landed, and only
// a fully drained lane set is removed.
func (x *executor) applyResize(oldK, newK, moveCount int, moves []move, ctl *runner) error {
	var err error
	if newK > oldK {
		if err := x.sc.AddShards(newK); err != nil {
			return err
		}
		if x.snap, err = ctl.publishResize(newK, moveCount); err != nil {
			return err
		}
		return x.applyMoves(moves)
	}
	if x.snap, err = ctl.publishResize(newK, moveCount); err != nil {
		return err
	}
	if err := x.applyMoves(moves); err != nil {
		return err
	}
	before := x.sc.Stats()
	for s := newK; s < oldK; s++ {
		for _, addr := range x.sc.HomesOn(s) {
			to, ok := x.assignOf(addr)
			if !ok || to >= newK {
				return fmt.Errorf("merge to k=%d: no surviving home for %v (got %d)", newK, addr, to)
			}
			if _, err := x.sc.MigrateAccount(addr, to); err != nil {
				return err
			}
		}
	}
	d := x.sc.Stats().Sub(before)
	x.res.WaveMigrations += d.Migrations
	x.res.WaveMigratedSlots += d.MigratedSlots
	for i := 0; i < x.cfg.MaxSettleSteps && x.sc.PendingReceipts() > 0; i++ {
		ctl.observePin()
		x.step(nil)
	}
	// The directory must have acknowledged every stalled wave before a lane
	// disappears; landing them here keeps the decommission safe under
	// injected commit stalls.
	if x.snap, err = ctl.drainStalls(); err != nil {
		return err
	}
	return x.sc.RemoveShards(newK)
}

// assignOf homes first-seen chain accounts — the bridge's placement rule —
// through the executing op's view. x.snap only changes between ops, so a
// step op pins one epoch for its whole block, and the parallel engine's
// workers, which call this during Step, only read it. The tests' reference
// path reads the simulator's live assignment directly. The two always
// agree: every placement event is flushed into the directory before the op
// that resolves it is enqueued.
func (x *executor) assignOf(a types.Address) (int, bool) {
	id, ok := x.gt.Registry.Lookup(a)
	if !ok {
		return 0, false
	}
	if x.live != nil {
		return x.live(graph.VertexID(id))
	}
	return x.snap.Lookup(graph.VertexID(id))
}

// record queues one record's transfer into the open block, materialising
// first-seen accounts on their homes and assigning the sender's nonce.
func (x *executor) record(fromID, toID, value uint64) error {
	from, ok := x.gt.Registry.Address(fromID)
	if !ok {
		return fmt.Errorf("opsim: unknown vertex %d", fromID)
	}
	to, ok := x.gt.Registry.Address(toID)
	if !ok {
		return fmt.Errorf("opsim: unknown vertex %d", toID)
	}
	x.materialise(fromID, from)
	x.materialise(toID, to)
	x.pendingTo = append(x.pendingTo, to)
	x.pendingTxs = append(x.pendingTxs, chain.Transaction{
		Nonce: x.nonces[fromID], From: from, // To: see flush
		Value:    evm.WordFromUint64(value),
		GasLimit: 50_000, GasPrice: 0,
	})
	x.nonces[fromID]++
	x.res.Replayed++
	return nil
}

// applyMoves translates a repartition batch into chain operations: state
// migrations under ModelMigration, future re-homings under ModelReceipts.
//
// Under ModelReceipts the chain adopts almost none of a repartition: the
// bridge materialises accounts at first sight, so by the time a policy
// fires, every moved vertex already has live state somewhere and Rehome
// (correctly) refuses to strand it. That is the receipts model's defining
// limitation made visible — a partition improvement can only reach accounts
// that do not exist yet — and it is why the joined DynamicCut (the
// simulator's assignment) and the chain's CrossTxs fraction diverge for
// repartitioning methods under receipts. The gap between the two columns
// *is* the measurement, not an error; under ModelMigration they track.
func (x *executor) applyMoves(moves []move) error {
	before := x.sc.Stats()
	for _, mv := range moves {
		addr, ok := x.gt.Registry.Address(uint64(mv.v))
		if !ok {
			return fmt.Errorf("opsim: repartition moved unknown vertex %d", mv.v)
		}
		var err error
		if x.cfg.Model == shardchain.ModelMigration {
			_, err = x.sc.MigrateAccount(addr, mv.to)
		} else {
			_, err = x.sc.Rehome(addr, mv.to)
		}
		if err != nil {
			return fmt.Errorf("opsim: applying repartition: %w", err)
		}
	}
	d := x.sc.Stats().Sub(before)
	x.res.WaveMigrations += d.Migrations
	x.res.WaveMigratedSlots += d.MigratedSlots
	return nil
}

// materialise funds a first-seen account on its home shard and, for
// contracts, installs the synthetic storage footprint that makes migration
// costs visible as moved slots. Record IDs always index into the fully
// materialised registry, so seen never needs to grow.
func (x *executor) materialise(id uint64, addr types.Address) {
	if x.seen[id] {
		return
	}
	x.seen[id] = true
	st := x.sc.StateOf(x.sc.HomeOf(addr))
	st.AddBalance(addr, x.cfg.fund)
	if x.gt.Registry.IsContract(id) {
		for i := 0; i < x.cfg.Sim.StorageSlots(graph.VertexID(id)); i++ {
			st.SetState(addr, evm.WordFromUint64(uint64(i+1)), evm.WordFromUint64(1))
		}
	}
	st.DiscardJournal()
}

// flush steps the chain with the accumulated block transactions. Nonces
// are assigned when a record is queued (a sender can appear several times
// in one block), so a rejected transaction leaves the tracked nonce ahead
// of the chain's; resyncing from the chain keeps one failure from
// cascading into ErrNonceMismatch for every later transaction of that
// sender.
func (x *executor) flush() {
	for i := range x.pendingTxs {
		x.pendingTxs[i].To = &x.pendingTo[i]
		x.blockTxs = append(x.blockTxs, &x.pendingTxs[i])
	}
	receipts := x.step(x.blockTxs)
	for i, receipt := range receipts {
		if receipt.Success {
			continue
		}
		from := x.pendingTxs[i].From
		id, _ := x.gt.Registry.Lookup(from) // the address came from the registry
		x.nonces[id] = x.sc.StateOf(x.sc.HomeOf(from)).GetNonce(from)
	}
	x.pendingTxs, x.pendingTo, x.blockTxs = x.pendingTxs[:0], x.pendingTo[:0], x.blockTxs[:0]
}

// step drives one chain block, accounting its wall-clock cost: StepNanos
// and Blocks are what the performance ledger reports as shardchain.step_*
// (the chain's share of a run, per block and per transaction).
func (x *executor) step(txs []*chain.Transaction) []*chain.Receipt {
	start := time.Now()
	receipts := x.sc.Step(txs)
	x.res.StepNanos += time.Since(start).Nanoseconds()
	x.res.Blocks++
	if x.cfg.Capture {
		for _, rc := range receipts {
			errStr := ""
			if rc.Err != nil {
				errStr = rc.Err.Error()
			}
			ok := byte(0)
			if rc.Success {
				ok = 1
			}
			var gas [8]byte
			binary.BigEndian.PutUint64(gas[:], rc.GasUsed)
			x.receiptsHash = types.HashConcat(
				x.receiptsHash[:], rc.TxHash[:], []byte{ok}, gas[:], []byte(errStr))
		}
	}
	return receipts
}

// captureArtifacts computes the end-of-run convergence evidence: per-shard
// state roots and a hash over every known account's home, in registry-ID
// order so the digest is canonical. ReceiptsHash accumulated in step.
func (x *executor) captureArtifacts() {
	// The chain's *final* lane count, not the configured initial one — the
	// autoscaler may have moved it.
	k := x.sc.K()
	x.res.StateRoots = make([]types.Hash, k)
	for s := 0; s < k; s++ {
		x.res.StateRoots[s] = x.sc.StateOf(s).Commit()
	}
	homes := types.Hash{}
	for id := uint64(0); id < uint64(x.gt.Registry.Len()); id++ {
		addr, ok := x.gt.Registry.Address(id)
		if !ok {
			continue
		}
		shard, known := x.sc.Known(addr)
		if !known {
			shard = -1
		}
		var buf [16]byte
		binary.BigEndian.PutUint64(buf[:8], id)
		binary.BigEndian.PutUint64(buf[8:], uint64(int64(shard)))
		homes = types.HashConcat(homes[:], buf[:])
	}
	x.res.HomesHash = homes
	x.res.ReceiptsHash = x.receiptsHash
}

// closeWindow snapshots the chain's counters into a per-window delta.
func (x *executor) closeWindow(start time.Time) {
	cur := x.sc.Stats()
	d := cur.Sub(x.lastStats)
	x.lastStats = cur
	x.res.Windows = append(x.res.Windows, WindowStat{
		Start:        start,
		Stats:        d,
		Interactions: d.LocalTxs + d.CrossTxs + d.Failed,
		Shards:       x.sc.K(),
	})
}
