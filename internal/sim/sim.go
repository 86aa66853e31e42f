// Package sim implements the sharding simulator: it replays a stream of
// interaction records, maintains the cumulative blockchain graph and a
// shard assignment, places newly appearing vertices, fires the method's
// repartitioning policy (none, periodic or threshold-triggered) and
// accumulates the paper's metrics in four-hour windows — the measurement
// granularity of Fig. 3.
package sim

import (
	"fmt"
	"math"
	"time"

	"ethpart/internal/graph"
	"ethpart/internal/metrics"
	"ethpart/internal/partition"
	"ethpart/internal/partition/multilevel"
	"ethpart/internal/trace"
)

// Method selects one of the paper's five partitioning methods.
type Method int

// The five methods of §II-C.
const (
	MethodHash Method = iota + 1
	MethodKL
	MethodMetis
	MethodRMetis
	MethodTRMetis
)

// String implements fmt.Stringer with the paper's labels.
func (m Method) String() string {
	switch m {
	case MethodHash:
		return "HASH"
	case MethodKL:
		return "KL"
	case MethodMetis:
		return "METIS"
	case MethodRMetis:
		return "R-METIS"
	case MethodTRMetis:
		return "TR-METIS"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ParseMethod maps a case-sensitive method label to its Method.
func ParseMethod(s string) (Method, error) {
	switch s {
	case "hash", "HASH":
		return MethodHash, nil
	case "kl", "KL":
		return MethodKL, nil
	case "metis", "METIS":
		return MethodMetis, nil
	case "rmetis", "r-metis", "R-METIS", "P-METIS", "pmetis":
		return MethodRMetis, nil
	case "trmetis", "tr-metis", "TR-METIS":
		return MethodTRMetis, nil
	default:
		return 0, fmt.Errorf("sim: unknown method %q", s)
	}
}

// Methods lists all five methods in the paper's order.
func Methods() []Method {
	return []Method{MethodHash, MethodKL, MethodMetis, MethodRMetis, MethodTRMetis}
}

// policy is what §II-C actually varies between the five methods, resolved
// from Config once in New so nothing downstream re-derives it from Method.
type policy struct {
	// place is the first-sight placement rule.
	place placement
	// trigger is when a same-k repartition wave fires.
	trigger trigger
	// source is the graph a same-k wave partitions.
	source source
	// refine runs the KL refiner over the current assignment instead of
	// partitioning the source from scratch.
	refine bool
}

// trigger is a method's repartitioning policy.
type trigger int

const (
	triggerNone      trigger = iota // never (HASH)
	triggerPeriodic                 // every RepartitionEvery (KL, METIS, R-METIS)
	triggerThreshold                // sustained degradation (TR-METIS)
)

// source is the graph a repartition wave hands the partitioner.
type source int

const (
	// sourceFull is the cumulative graph — the decayed live graph in decay
	// mode (METIS; TR-METIS under decay, bounded by the retention horizon
	// instead of the unbounded time between firings; every resize).
	sourceFull source = iota
	// sourceWindow is the graph of interactions since the last wave (KL,
	// R-METIS, full-history TR-METIS).
	sourceWindow
	// sourceDecayedWindow is the window's vertices with their decayed live
	// neighbourhood (Config.DecayedWindow; see decayedWindowGraph).
	sourceDecayedWindow
)

// resolvePolicy maps the method (and the options that modulate it) onto the
// policy the simulator runs; decay reports whether decay mode is on.
func resolvePolicy(cfg Config, decay bool) (policy, error) {
	var p policy
	switch cfg.Method {
	case MethodHash: // no waves of its own
	case MethodKL:
		p = policy{trigger: triggerPeriodic, source: sourceWindow, refine: true}
	case MethodMetis:
		p = policy{trigger: triggerPeriodic, source: sourceFull}
	case MethodRMetis:
		p = policy{trigger: triggerPeriodic, source: sourceWindow}
	case MethodTRMetis:
		p = policy{trigger: triggerThreshold, source: sourceWindow}
		if decay {
			p.source = sourceFull
		}
	default:
		return p, fmt.Errorf("sim: invalid method %d", cfg.Method)
	}
	if p.source == sourceWindow && cfg.DecayedWindow && decay {
		p.source = sourceDecayedWindow
	}
	switch {
	case cfg.Method == MethodHash:
		p.place = placeHash
	case decay:
		p.place = placeFennel
	}
	return p, nil
}

// placement is a first-sight placement rule: where a vertex appearing
// between repartition waves is put.
type placement int

const (
	// placeCap is the paper's min-cut/tie-balance rule under its hard
	// overload cap (partition.PlaceVertex): the graph-aware methods in
	// full-history mode, the behaviour the goldens pin.
	placeCap placement = iota
	// placeFennel is the Fennel-style degree-based penalty
	// (partition.PlaceVertexFennel): the graph-aware methods in decay
	// mode, where the decayed neighbour weights feed the same
	// recency-weighted objective the decayed repartitioner optimises.
	placeFennel
	// placeHash places by hashing the vertex ID (MethodHash). Resize waves
	// then re-hash at the new modulus, because "shard = hash mod k" is the
	// invariant future placements rely on.
	placeHash
)

// Config parameterises a simulation run.
type Config struct {
	Method Method
	// K is the number of shards.
	K int
	// Window is the metric-accumulation window; the paper uses four hours.
	Window time.Duration
	// RepartitionEvery is the period of the periodic methods (KL, METIS,
	// R-METIS); the paper uses two weeks.
	RepartitionEvery time.Duration
	// CutThreshold and BalanceThreshold trigger TR-METIS: a repartition
	// fires when a window's dynamic edge-cut exceeds CutThreshold or its
	// dynamic balance exceeds BalanceThreshold.
	CutThreshold     float64
	BalanceThreshold float64
	// MinRepartitionGap bounds how often TR-METIS may fire.
	MinRepartitionGap time.Duration
	// TriggerWindows is the number of consecutive over-threshold windows
	// TR-METIS requires before firing, filtering out single noisy windows
	// (a 4-hour window with few transactions has a wild balance reading).
	TriggerWindows int
	// DecayHalfLife, when positive, enables windowed decay of the
	// cumulative activity graph: at every window boundary all vertex and
	// edge weights are multiplied by 2^(−Window/DecayHalfLife), so an
	// entry's influence halves every DecayHalfLife of inactivity and
	// repartitions weigh recent traffic over stale history. Zero disables
	// decay entirely (full-history mode, byte-identical to a simulator
	// without the subsystem).
	DecayHalfLife time.Duration
	// Horizon is the retention horizon of decay mode: vertices and edges
	// untouched for at least Horizon are retired from the live graph
	// (their shard assignments stay sticky, and a reappearing vertex is
	// re-admitted through the normal first-sight path), which bounds the
	// live graph — and every repartition — by the active set instead of
	// the full history. Defaults to 4×DecayHalfLife when decay is enabled;
	// ignored when it is not.
	Horizon time.Duration
	// DecayedWindow, in decay mode, gives KL and R-METIS the decayed
	// repartition source TR-METIS gained first: instead of the raw
	// since-last-repartition window graph, the partitioner sees the window
	// vertices together with their decayed live neighbourhood — every
	// surviving edge of the cumulative graph incident to a window vertex,
	// at its decayed weight — so heavy recent traffic outvotes one-off
	// interactions and cross-window adjacency the raw window cannot see
	// still pulls neighbours together. Ignored outside decay mode and by
	// methods with no window source (HASH, METIS, decayed TR-METIS).
	DecayedWindow bool
	// StorageSlots, when non-nil, reports a vertex's storage footprint so
	// moves can be weighed in relocated state, not just vertex count.
	StorageSlots func(graph.VertexID) int
	// Autoscale arms the saturation-driven shard autoscaler (see
	// AutoscaleConfig in autoscale.go): K becomes the *initial* shard
	// count and the controller splits/merges within [KMin, KMax] at window
	// boundaries. The zero value keeps K fixed for the run — byte-identical
	// to a simulator without the subsystem.
	Autoscale AutoscaleConfig

	// OnPlace, when non-nil, fires the moment a first-seen vertex is
	// assigned a shard (during the Process call that introduced it).
	OnPlace func(v graph.VertexID, shard int)
	// OnMove, when non-nil, fires for every vertex whose shard changes
	// while a repartition is applied, after the assignment is updated.
	// Observers driving a live system (see internal/opsim) translate these
	// into state migrations or re-homings.
	OnMove func(v graph.VertexID, from, to int)
	// OnRepartition, when non-nil, fires after a repartition completes,
	// with the window-boundary time that triggered it and the number of
	// vertices it moved. It fires after every OnMove of the batch.
	OnRepartition func(at time.Time, moves int)
	// OnRetire, when non-nil, fires for every vertex the decay sweep
	// retires from the live graph, with the sticky shard it keeps.
	// Observers maintaining a serving directory (see internal/directory)
	// use it to spill the entry to a cold tier; it never fires outside
	// decay mode.
	OnRetire func(v graph.VertexID, shard int)
	// OnResize, when non-nil, fires after the autoscaler completes a shard
	// resize, with the window-boundary time, the old and new shard counts,
	// and the number of vertices the scale wave moved. It fires after every
	// OnMove of the wave, so an observer (see internal/opsim and
	// directory.Publisher.OnResize) can commit the whole resize — new shard
	// count plus remapped placements — as one atomic epoch flip.
	OnResize func(at time.Time, oldK, newK, moves int)
}

// withDefaults fills zero fields with the paper's parameters.
func (c Config) withDefaults() Config {
	if c.K <= 0 {
		c.K = 2
	}
	if c.Window <= 0 {
		c.Window = 4 * time.Hour
	}
	if c.RepartitionEvery <= 0 {
		c.RepartitionEvery = 14 * 24 * time.Hour
	}
	if c.CutThreshold <= 0 {
		c.CutThreshold = defaultCutThreshold(c.K)
	}
	if c.BalanceThreshold <= 0 {
		c.BalanceThreshold = defaultBalanceThreshold(c.K)
	}
	if c.MinRepartitionGap <= 0 {
		c.MinRepartitionGap = 3 * 24 * time.Hour
	}
	if c.TriggerWindows <= 0 {
		c.TriggerWindows = 6 // one day of sustained degradation
	}
	if c.DecayHalfLife > 0 && c.Horizon <= 0 {
		// Four half-lives: by then an entry's decayed weight has dropped
		// past 1/16 of its peak — effectively zero on integer weights.
		c.Horizon = 4 * c.DecayHalfLife
	}
	if c.Autoscale.Enabled {
		c.Autoscale = c.Autoscale.withDefaults(c.K)
	}
	return c
}

// defaultCutThreshold is the TR-METIS cut trigger derived from the shard
// count: the hashing baseline cuts (k-1)/k of the edges, and a threshold a
// little below that fires only when the partition has degraded toward "as
// bad as hashing". The paper tunes thresholds so TR-METIS tracks R-METIS
// quality with far fewer repartitions.
func defaultCutThreshold(k int) float64 {
	return 0.9 * float64(k-1) / float64(k)
}

// defaultBalanceThreshold is the TR-METIS balance trigger derived from the
// shard count: Eq. 2's balance ranges over [1, k], so the tolerated
// imbalance widens with k.
func defaultBalanceThreshold(k int) float64 {
	return 1.0 + 0.4*float64(k-1)
}

// WindowStat is one data point of Fig. 3: metrics for a four-hour window.
type WindowStat struct {
	Start time.Time
	// DynamicCut is the cross-shard fraction of the interaction weight
	// executed in this window — the "executed cross-shard transactions".
	DynamicCut float64
	// DynamicBalance is Eq. 2 over the activity each shard served in this
	// window.
	DynamicBalance float64
	// StaticCut is Eq. 1 over the cumulative graph at window end.
	StaticCut float64
	// StaticBalance is Eq. 2 over vertex counts at window end.
	StaticBalance float64
	// Moves is the number of vertices that changed shard in this window.
	Moves int64
	// MovedSlots is the storage relocated by those moves, in slots.
	MovedSlots int64
	// Repartitioned marks windows in which the policy fired.
	Repartitioned bool
	// Interactions is the window's interaction count.
	Interactions int64
	// Shards is the shard count the window was served at — constant without
	// the autoscaler, and the provisioned-capacity-over-time series (the
	// cost axis of the scalecost figure) with it.
	Shards int
	// PeakLoad is the largest per-shard load of the window — the
	// saturation signal the autoscaler's high-water trigger reads.
	PeakLoad int64
}

// Result is the outcome of a simulation run.
type Result struct {
	Method  Method
	K       int
	Windows []WindowStat
	// TotalMoves counts every vertex-shard change over the run.
	TotalMoves int64
	// TotalMovedSlots is the total storage relocated.
	TotalMovedSlots int64
	// Repartitions counts policy firings.
	Repartitions int
	// OverallDynamicCut is the cross-shard fraction of all executed
	// interaction weight over the whole run (Fig. 5's dynamic edge-cut).
	OverallDynamicCut float64
	// OverallDynamicBalance is Eq. 2 over the total activity each shard
	// served across the run (Fig. 5's dynamic balance).
	OverallDynamicBalance float64
	// FinalStaticCut and FinalStaticBalance are Eq. 1/2 on the final graph.
	FinalStaticCut     float64
	FinalStaticBalance float64
	// Vertices and Edges describe the final graph.
	Vertices, Edges int
	// Resizes records every autoscaler firing in order; empty (nil) unless
	// Config.Autoscale is enabled and the controller actually fired, so
	// fixed-k results are byte-identical to a simulator without the field.
	Resizes []ResizeEvent
}

// SweepObs is one window's decay-sweep observation — the measurement half
// of the O(touched) hot-path claim, kept outside Result so measurement
// noise (nanoseconds) never perturbs result goldens. One entry is recorded
// per flushed window, decay mode or not; windows without a sweep (decay
// off, or an empty live graph) report zero work and RecountSkipped true;
// entry i belongs to Result.Windows[i].
type SweepObs struct {
	// LiveVertices is the live-graph size after the window's sweep.
	LiveVertices int
	// SweepNanos is the wall time of the decay sweep, including the
	// incremental cut-counter updates driven by its edge drops.
	SweepNanos int64
	// Touched counts the entries the sweep visited (graph.DecayDelta's
	// work metric): O(touched traffic) on the scheduled path regardless of
	// live-graph size.
	Touched int
	// RecountSkipped reports that the sweep changed no edge, so cut
	// maintenance — the former per-window O(live edges) recount — did zero
	// work this window.
	RecountSkipped bool
}

// Simulator replays interaction records under one method configuration.
// Feed it records in time order via Process, then call Finish.
//
// Simulator is not safe for concurrent use.
type Simulator struct {
	cfg Config
	// policy is cfg.Method resolved; see policy.
	policy policy

	full *graph.Graph // cumulative graph
	// window is the graph of interactions since the last wave, kept only
	// when a same-k wave partitions it inline (nil otherwise); a wave
	// resets it. decayedWindow is the storage decayedWindowGraph refills
	// at every wave (nil unless the policy's source is the decayed window).
	window        *graph.Graph
	decayedWindow *graph.Graph
	assign        *partition.Assignment

	hash partition.Hash
	ml   *multilevel.Partitioner
	kl   *partition.KL

	// csrb reuses CSR build scratch across window rebuilds.
	csrb graph.CSRBuilder
	// placeScratch and loadScratch keep PlaceVertex and staticBalance
	// allocation-free on the per-record hot path.
	placeScratch []int64
	loadScratch  []int64

	// Incrementally maintained cumulative cut state.
	cutEdges, totalEdges int64

	// clk is the wave schedule: the open window and the last wave.
	clk clock
	// ahead, when non-nil, plans every same-k wave ahead of the simulator
	// (NewOver on a lookahead-eligible config; see lookahead.go).
	ahead *lookahead

	// Current window accumulation.
	winLoad     []int64
	winCutW     int64
	winTotalW   int64
	winCount    int64
	winMoves    int64
	winSlots    int64
	winReparted bool

	// Whole-run accounting for Fig. 5: per-shard served load and the
	// cross-shard fraction of executed interactions (evaluated at
	// execution time, like a real sharded system would experience it).
	runLoad          []int64
	runCutW, runTotW int64

	finished bool
	// badWindows counts consecutive over-threshold observed windows
	// (TR-METIS); quiet windows neither extend nor reset the streak, but
	// a quiet gap longer than TriggerWindows ages the evidence out.
	// lastBadWindow is the flushed-window count at the streak's newest
	// evidence, for measuring that gap.
	badWindows    int
	lastBadWindow int

	// Autoscaler state (Config.Autoscale.Enabled): whether the TR-METIS
	// trigger thresholds were defaulted from K (and so must be re-derived
	// at the new k after a resize) rather than pinned by the caller, the
	// hysteresis streaks, and the most recently flushed window's total
	// load, stashed by flushWindow before it resets the per-shard loads
	// (WindowStat keeps only the peak).
	cutDefaulted, balDefaulted bool
	hotStreak, coldStreak      int
	lastWinSumLoad             int64

	// Decay mode (Config.DecayHalfLife > 0): the per-window weight
	// multiplier and the retention horizon in sweeps (the decaying graph
	// enforces it; a lookahead's replica is built with it). liveCounts
	// tracks live-graph vertices per shard — retired vertices keep sticky
	// assignments, so assign.Count measures dead history; placement
	// capacity and static balance must follow what actually exists.
	// Maintained incrementally (first sight, retirement, moves) and only
	// in decay mode.
	decayFactor float64
	decayAge    uint32
	liveCounts  []int

	// sweeps records one SweepObs per flushed window; see Sweeps.
	sweeps []SweepObs

	result Result
}

// New returns a simulator for cfg.
func New(cfg Config) (*Simulator, error) {
	// Whether the TR-METIS thresholds were left to default must be known
	// before withDefaults fills them: a resize re-derives defaulted
	// thresholds at the new k but never touches caller-pinned values.
	cutDefaulted := cfg.CutThreshold <= 0
	balDefaulted := cfg.BalanceThreshold <= 0
	cfg = cfg.withDefaults()
	pol, err := resolvePolicy(cfg, cfg.DecayHalfLife > 0)
	if err != nil {
		return nil, err
	}
	if cfg.Horizon > 0 && cfg.DecayHalfLife <= 0 {
		// A horizon without a half-life would be silently ignored —
		// full-history mode with the caller believing memory is bounded.
		return nil, fmt.Errorf("sim: Horizon is set but DecayHalfLife is not; decay needs both (or neither)")
	}
	if cfg.Autoscale.Enabled {
		if err := cfg.Autoscale.validate(cfg.K); err != nil {
			return nil, err
		}
	}
	assign, err := partition.NewAssignment(cfg.K)
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:          cfg,
		policy:       pol,
		full:         graph.New(),
		assign:       assign,
		clk:          clock{window: cfg.Window, every: cfg.RepartitionEvery},
		ml:           multilevel.New(multilevel.Config{}),
		kl:           partition.NewKL(),
		placeScratch: make([]int64, cfg.K),
		loadScratch:  make([]int64, cfg.K),
		winLoad:      make([]int64, cfg.K),
		runLoad:      make([]int64, cfg.K),
		cutDefaulted: cutDefaulted,
		balDefaulted: balDefaulted,
		result:       Result{Method: cfg.Method, K: cfg.K},
	}
	if pol.source != sourceFull {
		s.window = graph.New()
	}
	if pol.source == sourceDecayedWindow {
		s.decayedWindow = graph.New()
	}
	if cfg.DecayHalfLife > 0 {
		s.decayFactor = math.Exp2(-float64(cfg.Window) / float64(cfg.DecayHalfLife))
		if s.decayFactor == 0 {
			// A half-life thousands of times shorter than the window
			// underflows Exp2 to zero, which would read as "decay off".
			// Any such factor already means "every weight collapses to the
			// floor of one within a single sweep", so the smallest positive
			// float keeps exactly those semantics while keeping decay on.
			s.decayFactor = math.SmallestNonzeroFloat64
		}
		// Age is counted in whole windows and an entry touched just before
		// a boundary is already age 1 at the next sweep, so retirement at
		// age maxAge means a minimum idle time of (maxAge−1) windows; the
		// +1 guarantees that minimum is at least Horizon, honouring the
		// "untouched for at least Horizon" contract (and keeping
		// Horizon <= Window from degenerating into wiping every entry at
		// every boundary).
		maxAge := int64(cfg.Horizon/cfg.Window) + 1
		if cfg.Horizon%cfg.Window != 0 {
			maxAge++
		}
		if maxAge > graph.MaxDecayAge {
			return nil, fmt.Errorf("sim: Horizon %v is %d windows of %v; the retention horizon is limited to %d windows",
				cfg.Horizon, maxAge-1, cfg.Window, graph.MaxDecayAge-1)
		}
		s.decayAge = uint32(maxAge)
		if s.full, err = graph.NewDecaying(s.decayAge); err != nil {
			return nil, err
		}
		s.liveCounts = make([]int, cfg.K)
	}
	return s, nil
}

// decayEnabled reports whether windowed decay mode is on.
func (s *Simulator) decayEnabled() bool { return s.decayFactor > 0 }

// Assignment exposes the live assignment (read-only use).
func (s *Simulator) Assignment() *partition.Assignment { return s.assign }

// Graph exposes the cumulative graph (read-only use).
func (s *Simulator) Graph() *graph.Graph { return s.full }

// Sweeps returns the per-window sweep observations recorded so far, one
// per flushed window, parallel to Result.Windows. The slice aliases the
// simulator's internal storage; callers must not modify it.
func (s *Simulator) Sweeps() []SweepObs { return s.sweeps }

// Process consumes one interaction record. Records must arrive in
// non-decreasing time order; one before the open metric window is an
// error.
func (s *Simulator) Process(rec trace.Record) error {
	if err := s.clk.admit(rec.Time); err != nil {
		return err
	}
	// Window roll-over (possibly across several empty windows).
	for s.clk.crossed(rec.Time) {
		s.flushWindow()
		now := s.clk.roll()
		// Decay ages the live graph before the policy looks at it, so a
		// firing repartition sees this window's weights already decayed.
		s.decayStep()
		// The autoscaler runs before the repartition policy: a firing
		// resize IS a repartition wave (it advances the wave clock), so the
		// policy never double-fires on the same boundary.
		if err := s.maybeResize(now); err != nil {
			return err
		}
		// Threshold policy is evaluated at window boundaries; periodic
		// policies by elapsed time.
		if err := s.maybeRepartition(now); err != nil {
			return err
		}
	}

	u := graph.VertexID(rec.From)
	v := graph.VertexID(rec.To)
	// In decay mode, endpoints absent from the live graph (brand new or
	// retired-and-reappearing) are about to become live; their shard joins
	// the live counts after placement resolves it.
	var newU, newV bool
	if s.decayEnabled() {
		newU = !s.full.HasVertex(u)
		newV = u != v && !s.full.HasVertex(v)
	}

	// A record creates at most one directed edge (none for a self-loop); the
	// graph's edge count says whether it did.
	edges := s.full.EdgeCount()
	if err := rec.Apply(s.full); err != nil {
		return err
	}
	newEdge := s.full.EdgeCount() > edges
	if s.window != nil {
		if err := rec.Apply(s.window); err != nil {
			return err
		}
	}

	// Place endpoints that are new to the assignment. Each endpoint joins
	// the live counts right after its own placement, before the next
	// placement reads them — mirroring when the assignment's counts move.
	su, err := s.placeIfNew(u)
	if err != nil {
		return err
	}
	if newU {
		s.liveCounts[su]++
	}
	sv, err := s.placeIfNew(v)
	if err != nil {
		return err
	}
	if newV {
		s.liveCounts[sv]++
	}

	// Update cumulative cut state.
	cross := su != sv && u != v
	if newEdge {
		s.totalEdges++
		if cross {
			s.cutEdges++
		}
	}
	// Window accumulation: each interaction is one unit of load on each
	// endpoint's shard; cross-shard interactions count against the cut.
	s.winCount++
	s.winLoad[su]++
	s.runLoad[su]++
	if u != v {
		s.winLoad[sv]++
		s.runLoad[sv]++
		s.winTotalW++
		s.runTotW++
		if cross {
			s.winCutW++
			s.runCutW++
		}
	}
	return nil
}

// placeIfNew assigns a shard to v if it has none, per the method's rule,
// and returns v's shard.
func (s *Simulator) placeIfNew(v graph.VertexID) (int, error) {
	if shard, ok := s.assign.ShardOf(v); ok {
		return shard, nil
	}
	var shard int
	switch s.policy.place {
	case placeHash:
		shard = s.hash.ShardOf(v, s.cfg.K)
	case placeFennel:
		// Decay-aware placement: decayed neighbour weights against the
		// shared degree-based size penalty, over the live population.
		shard = partition.PlaceVertexFennel(s.full, s.assign, v, s.placeScratch, s.liveCounts)
	default:
		shard = partition.PlaceVertex(s.full, s.assign, v, s.placeScratch)
	}
	if _, _, err := s.assign.Assign(v, shard); err != nil {
		return 0, err
	}
	if s.cfg.OnPlace != nil {
		s.cfg.OnPlace(v, shard)
	}
	return shard, nil
}

// flushWindow closes the current window into the result.
func (s *Simulator) flushWindow() {
	stat := WindowStat{
		Start:          s.clk.start,
		DynamicBalance: metrics.LoadBalance(s.winLoad),
		StaticBalance:  s.staticBalance(),
		Moves:          s.winMoves,
		MovedSlots:     s.winSlots,
		Repartitioned:  s.winReparted,
		Interactions:   s.winCount,
		Shards:         s.cfg.K,
	}
	if s.winTotalW > 0 {
		stat.DynamicCut = float64(s.winCutW) / float64(s.winTotalW)
	}
	if s.totalEdges > 0 {
		stat.StaticCut = float64(s.cutEdges) / float64(s.totalEdges)
	}
	for _, l := range s.winLoad {
		if l > stat.PeakLoad {
			stat.PeakLoad = l
		}
	}
	s.result.Windows = append(s.result.Windows, stat)
	if s.cfg.Autoscale.Enabled {
		// Stash the window's total load before the reset below; the
		// autoscaler runs at the boundary, after decay, on the window just
		// closed.
		s.lastWinSumLoad = 0
		for _, l := range s.winLoad {
			s.lastWinSumLoad += l
		}
	}
	// Pre-fill the window's sweep observation; decayStep overwrites it if
	// a sweep actually runs (it fires right after this flush).
	s.sweeps = append(s.sweeps, SweepObs{
		LiveVertices:   s.full.VertexCount(),
		RecountSkipped: true,
	})

	for i := range s.winLoad {
		s.winLoad[i] = 0
	}
	s.winCutW, s.winTotalW, s.winCount = 0, 0, 0
	s.winMoves, s.winSlots = 0, 0
	s.winReparted = false
}

// decayStep ages the cumulative graph by one window in decay mode: weights
// shrink by the per-window factor and entries beyond the retention horizon
// retire. The cumulative cut counters are maintained *incrementally* from
// the sweep's drops — every directed edge dropped at the horizon leaves the
// counters, against the sticky shard assignments both endpoints are
// guaranteed to hold, and a rescale changes no edge count — so StaticCut stays
// Eq. 1 over exactly what the partitioners see without the former
// per-window O(live edges) recount. A quiet sweep (nothing dropped,
// nothing rescaled — the steady state once weights sit at the decay floor)
// does zero cut-maintenance work; the package's tests check this path
// against a full recount.
func (s *Simulator) decayStep() {
	if !s.decayEnabled() {
		return
	}
	if s.full.VertexCount() == 0 {
		// Nothing live: the sweep would be a no-op. A long quiet gap rolls
		// over thousands of windows; skipping here keeps that O(windows),
		// not O(windows × peak slots). Skipping the epoch advance is safe —
		// ages only matter relative to sweeps that actually saw something.
		return
	}
	start := time.Now()
	delta := s.full.DecaySweep(s.decayFactor,
		func(v graph.VertexID) {
			// Retired vertices keep their sticky assignment but leave the
			// live population.
			if shard, ok := s.assign.ShardOf(v); ok {
				s.liveCounts[shard]--
				if s.cfg.OnRetire != nil {
					s.cfg.OnRetire(v, shard)
				}
			}
		},
		func(u, v graph.VertexID) {
			// One callback per directed edge dropped at the horizon.
			// Assignments are sticky through retirement, so both endpoints
			// still resolve even when the sweep is about to retire them.
			s.totalEdges--
			su, _ := s.assign.ShardOf(u)
			if sv, _ := s.assign.ShardOf(v); su != sv {
				s.cutEdges--
			}
		})
	obs := &s.sweeps[len(s.sweeps)-1]
	obs.SweepNanos = time.Since(start).Nanoseconds()
	obs.LiveVertices = s.full.VertexCount()
	obs.Touched = delta.Touched
	obs.RecountSkipped = delta.Quiet()
}

// staticBalance is Eq. 2 over vertex counts: assignment counts in
// full-history mode, per-shard live counts in decay mode. Retired vertices
// keep sticky assignments but no longer describe what the partitioners
// balance, so decay mode counts the live population — the same one
// StaticCut is recounted over and placement capacity is measured against —
// or the static metrics would drift onto different vertex sets.
func (s *Simulator) staticBalance() float64 {
	if s.decayEnabled() {
		for i := range s.loadScratch {
			s.loadScratch[i] = int64(s.liveCounts[i])
		}
	} else {
		for i := range s.loadScratch {
			s.loadScratch[i] = int64(s.assign.Count(i))
		}
	}
	return metrics.LoadBalance(s.loadScratch)
}

// maybeRepartition fires the method's policy at a window boundary.
func (s *Simulator) maybeRepartition(now time.Time) error {
	switch s.policy.trigger {
	case triggerNone:
		return nil
	case triggerPeriodic:
		if !s.clk.due(now) {
			return nil
		}
	case triggerThreshold:
		// The paper's trigger: TriggerWindows *consecutive* degraded
		// windows. A quiet window (no interactions) carries no evidence
		// either way — it neither extends nor erases the streak, so a
		// one-window lull during a multi-window rollover cannot wipe out
		// five genuinely bad windows. Two staleness guards bound the
		// evidence: a quiet gap longer than TriggerWindows windows ages
		// the streak out entirely (degradation separated by more idle
		// time than the trigger's own timescale is not "consecutive"),
		// and a firing always requires the just-flushed window itself to
		// be degraded — evidence accumulated while MinRepartitionGap
		// blocked the trigger can never fire on its own once the gap
		// elapses, only a fresh degraded window can.
		winCount := len(s.result.Windows)
		if winCount == 0 {
			return nil
		}
		last := s.result.Windows[winCount-1]
		if last.Interactions == 0 {
			return nil
		}
		if last.DynamicCut <= s.cfg.CutThreshold && last.DynamicBalance <= s.cfg.BalanceThreshold {
			s.badWindows = 0
			return nil
		}
		if s.badWindows > 0 && winCount-s.lastBadWindow-1 > s.cfg.TriggerWindows {
			s.badWindows = 0 // evidence aged out across the quiet gap
		}
		s.badWindows++
		s.lastBadWindow = winCount
		if now.Sub(s.clk.lastWave) < s.cfg.MinRepartitionGap {
			return nil
		}
		if s.badWindows < s.cfg.TriggerWindows {
			return nil
		}
		s.badWindows = 0
	}
	return s.wave(now, s.cfg.K)
}

// Finish flushes the open window and computes run-level metrics. It is
// idempotent: repeated calls return equal results without flushing a
// duplicate trailing window. The returned Result is a copy that does not
// point back into the simulator, so callers can keep it (datasets cache
// results by the dozen) without keeping the graph, the CSR scratch and the
// callbacks reachable.
func (s *Simulator) Finish() *Result {
	if s.clk.started && !s.finished {
		s.flushWindow()
	}
	s.finished = true
	res := s.result
	res.OverallDynamicBalance = metrics.LoadBalance(s.runLoad)
	if s.runTotW > 0 {
		res.OverallDynamicCut = float64(s.runCutW) / float64(s.runTotW)
	}
	if s.totalEdges > 0 {
		res.FinalStaticCut = float64(s.cutEdges) / float64(s.totalEdges)
	}
	res.FinalStaticBalance = s.staticBalance()
	res.Vertices = s.full.VertexCount()
	res.Edges = s.full.EdgeCount()
	return &res
}
