// Package experiments regenerates every figure of the paper's evaluation:
//
//	Fig. 1 — growth of the blockchain graph (vertices & edges per month);
//	Fig. 2 — an example subgraph rendered to DOT;
//	Fig. 3 — hashing and METIS time series at k=2 (4-hour windows);
//	Fig. 4 — box statistics of the five methods over 2017 periods;
//	Fig. 5 — the shard-count sweep (k ∈ {2,4,8}) of cut, balance and moves.
//
// A Dataset generates the synthetic history once and caches per-method
// simulation results so the figures share work. Both cmd/experiments and
// the root-level benchmarks are thin wrappers around this package.
package experiments

import (
	"cmp"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"ethpart/internal/graph"
	"ethpart/internal/metrics"
	"ethpart/internal/sim"
	"ethpart/internal/stats"
	"ethpart/internal/workload"
)

// Params configures a reproduction run.
type Params struct {
	// Seed drives the whole synthetic history.
	Seed int64
	// Scale is the workload scale (see workload.Config.Scale). The
	// default, 0.004, yields a few hundred thousand interactions — large
	// enough for every qualitative effect, small enough for a laptop.
	Scale float64
	// BlockInterval is the simulated block spacing (default 2h).
	BlockInterval time.Duration
	// Eras overrides the history schedule (default workload.DefaultEras).
	Eras []workload.Era
	// Scenario, when non-empty, generates the history from the named
	// open-loop scenario library composition instead of the era schedule;
	// Scale and Eras are ignored. Seed overrides the scenario's seed.
	Scenario string
	// Arrival optionally overrides the scenario's arrival process kind
	// (poisson|diurnal|flash); only meaningful with Scenario.
	Arrival string
	// Window is the metric window (default 4h, as in the paper).
	Window time.Duration
	// RepartitionEvery is the periodic methods' period (default 2 weeks).
	RepartitionEvery time.Duration
	// DecayHalfLife, when positive, enables windowed decay of the
	// cumulative graph in every simulation (see sim.Config.DecayHalfLife).
	// Zero keeps the paper's full-history mode.
	DecayHalfLife time.Duration
	// Horizon is the decay retention horizon (see sim.Config.Horizon);
	// zero defaults to 4×DecayHalfLife when decay is enabled.
	Horizon time.Duration
	// Autoscale, when Enabled, lets every simulation resize its shard
	// count at window boundaries (see sim.AutoscaleConfig). The zero value
	// keeps k fixed, as in the paper.
	Autoscale sim.AutoscaleConfig
}

// ValidateDecayFlags is the flag-parse-time check every binary exposing the
// -decay-half-life/-horizon pair runs: a negative value of either, which
// would run as its zero default (full history, 4× the half-life), and a
// horizon without a half-life are rejected before any trace is read or
// history generated. Without it the rejection only surfaces when a
// simulator is constructed — after setup has already burned minutes.
func ValidateDecayFlags(decay, horizon time.Duration) error {
	if err := cmp.Or(
		ValidateNonNegative("-decay-half-life", decay),
		ValidateNonNegative("-horizon", horizon),
	); err != nil {
		return err
	}
	if horizon > 0 && decay == 0 {
		return fmt.Errorf(
			"-horizon %v requires -decay-half-life: the horizon is the decay subsystem's retention bound and would be silently ignored without a half-life; pass both or neither", horizon)
	}
	return nil
}

// ValidateShards is the flag-parse-time shard-count check every binary runs
// on each count it takes (name labels the flag in the error): below one, a
// run would silently fall back to a default count and chaos would divide
// by it.
func ValidateShards(name string, k int) error {
	if k < 1 {
		return fmt.Errorf("%s must be >= 1, got %d", name, k)
	}
	return nil
}

// ValidatePositive is the flag-parse-time check every binary runs on each
// scale and duration flag it takes (name labels the flag in the error): at
// zero or below, a run would silently fall back to a default of the layer
// underneath, which need not be the flag's own.
func ValidatePositive[T float64 | time.Duration](name string, v T) error {
	if v <= 0 {
		return fmt.Errorf("%s must be > 0, got %v", name, v)
	}
	return nil
}

// ValidateNonNegative is the flag-parse-time check on a flag whose zero
// means "default" or "off" (name labels the flag in the error): below zero,
// the layer underneath would silently run it as that zero.
func ValidateNonNegative[T int | int64 | float64 | time.Duration](name string, v T) error {
	if v < 0 {
		return fmt.Errorf("%s must be >= 0, got %v", name, v)
	}
	return nil
}

func (p Params) withDefaults() Params {
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Scale <= 0 {
		p.Scale = 0.004
	}
	if p.BlockInterval <= 0 {
		p.BlockInterval = 2 * time.Hour
	}
	if p.Window <= 0 {
		p.Window = 4 * time.Hour
	}
	if p.RepartitionEvery <= 0 {
		p.RepartitionEvery = 14 * 24 * time.Hour
	}
	return p
}

// Dataset is a generated history plus cached simulation results.
//
// A Dataset is safe for concurrent use: the result cache is guarded by a
// mutex (fills run outside the lock — the generated trace is only read —
// so concurrent callers at worst duplicate a replay, never race).
type Dataset struct {
	Params Params
	GT     *sim.GeneratedTrace

	mu    sync.Mutex
	cache map[simKey]*sim.Result
}

// cachedRun returns the cached simulation result for key, if any.
func (d *Dataset) cachedRun(key simKey) (*sim.Result, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	res, ok := d.cache[key]
	return res, ok
}

// storeRun caches a simulation result.
func (d *Dataset) storeRun(key simKey, res *sim.Result) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cache[key] = res
}

type simKey struct {
	method sim.Method
	k      int
}

// NewDataset generates the synthetic history for p.
func NewDataset(p Params) (*Dataset, error) {
	p = p.withDefaults()
	var (
		gt  *sim.GeneratedTrace
		err error
	)
	if p.Scenario != "" {
		var sc workload.Scenario
		sc, err = workload.ResolveScenario(p.Scenario, p.Arrival, 0, p.Seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		sc.BlockInterval = p.BlockInterval
		gt, err = sim.GenerateScenario(sc)
	} else {
		gt, err = sim.Generate(workload.Config{
			Seed:          p.Seed,
			Scale:         p.Scale,
			Eras:          p.Eras,
			BlockInterval: p.BlockInterval,
		})
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: generating dataset: %w", err)
	}
	return &Dataset{Params: p, GT: gt, cache: make(map[simKey]*sim.Result)}, nil
}

// configFor is the simulation configuration for method at k shards using
// the paper's policy parameters.
func (d *Dataset) configFor(method sim.Method, k int) sim.Config {
	return sim.Config{
		Method:           method,
		K:                k,
		Window:           d.Params.Window,
		RepartitionEvery: d.Params.RepartitionEvery,
		DecayHalfLife:    d.Params.DecayHalfLife,
		Horizon:          d.Params.Horizon,
		Autoscale:        d.Params.Autoscale,
	}
}

// Run returns the (cached) simulation result for method at k shards using
// the paper's policy parameters.
func (d *Dataset) Run(method sim.Method, k int) (*sim.Result, error) {
	key := simKey{method, k}
	if res, ok := d.cachedRun(key); ok {
		return res, nil
	}
	res, err := sim.Replay(d.GT, d.configFor(method, k))
	if err != nil {
		return nil, fmt.Errorf("experiments: %v k=%d: %w", method, k, err)
	}
	d.storeRun(key, res)
	return res, nil
}

// Prefetch fills the result cache for every method at each of the given
// shard counts by replaying the missing combinations in parallel with
// sim.RunSweep. Figure methods then serve from the cache; calling Prefetch
// first turns the serial method×k loops of Fig. 4 and Fig. 5 into one
// multi-core sweep.
func (d *Dataset) Prefetch(ks []int) error {
	var cfgs []sim.Config
	var keys []simKey
	for _, k := range ks {
		for _, m := range sim.Methods() {
			if _, ok := d.cachedRun(simKey{m, k}); ok {
				continue
			}
			cfgs = append(cfgs, d.configFor(m, k))
			keys = append(keys, simKey{m, k})
		}
	}
	if len(cfgs) == 0 {
		return nil
	}
	results, err := sim.RunSweep(d.GT, cfgs)
	if err != nil {
		return fmt.Errorf("experiments: prefetch: %w", err)
	}
	for i, key := range keys {
		d.storeRun(key, results[i])
	}
	return nil
}

// Fig1Row is one monthly sample of graph size.
type Fig1Row struct {
	Month    time.Time
	Vertices int64
	Edges    int64
}

// Fig1 samples the cumulative graph size at month boundaries, reproducing
// the growth curve of Fig. 1. It also returns the era boundaries for the
// vertical markers.
func (d *Dataset) Fig1() ([]Fig1Row, []workload.Era, error) {
	g := graph.New()
	var rows []Fig1Row
	var next time.Time
	flush := func(at time.Time) {
		rows = append(rows, Fig1Row{
			Month:    at,
			Vertices: int64(g.VertexCount()),
			Edges:    int64(g.EdgeCount()),
		})
	}
	for _, rec := range d.GT.Records {
		t := time.Unix(rec.Time, 0).UTC()
		if next.IsZero() {
			next = monthStart(t).AddDate(0, 1, 0)
		}
		for !t.Before(next) {
			flush(next)
			next = next.AddDate(0, 1, 0)
		}
		if err := rec.Apply(g); err != nil {
			return nil, nil, fmt.Errorf("experiments: fig1: %w", err)
		}
	}
	if !next.IsZero() {
		flush(next)
	}
	eras := d.Params.Eras
	if eras == nil {
		eras = workload.DefaultEras()
	}
	return rows, eras, nil
}

// Fig1GrowthFit characterises the growth regime before and after the
// attack: the paper observes exponential growth until around October 2016
// and slower, superlinear growth afterwards. It returns the log-linear
// growth rate (per month) of the edge count in both regimes.
func Fig1GrowthFit(rows []Fig1Row, split time.Time) (preRate, postRate float64, err error) {
	var preX, preY, postX, postY []float64
	for i, r := range rows {
		if r.Edges <= 0 {
			continue
		}
		x := float64(i)
		if r.Month.Before(split) {
			preX = append(preX, x)
			preY = append(preY, float64(r.Edges))
		} else {
			postX = append(postX, x)
			postY = append(postY, float64(r.Edges))
		}
	}
	_, preRate, _, err = stats.LogLinearFit(preX, preY)
	if err != nil {
		return 0, 0, fmt.Errorf("experiments: pre-attack fit: %w", err)
	}
	_, postRate, _, err = stats.LogLinearFit(postX, postY)
	if err != nil {
		return 0, 0, fmt.Errorf("experiments: post-attack fit: %w", err)
	}
	return preRate, postRate, nil
}

// Fig2 renders an early subgraph around a fan-out contract in the style of
// the paper's Fig. 2 (accounts solid, contracts dashed, weighted edges).
func (d *Dataset) Fig2(w io.Writer, maxVertices int) error {
	if maxVertices <= 0 {
		maxVertices = 24
	}
	// Build the graph of the first month.
	g := graph.New()
	var cutoff int64
	for _, rec := range d.GT.Records {
		if cutoff == 0 {
			cutoff = time.Unix(rec.Time, 0).UTC().AddDate(0, 1, 0).Unix()
		}
		if rec.Time > cutoff {
			break
		}
		if err := rec.Apply(g); err != nil {
			return fmt.Errorf("experiments: fig2: %w", err)
		}
	}
	// Seed on the busiest contract.
	var seed graph.VertexID
	var bestW int64 = -1
	g.Vertices(func(id graph.VertexID, kind graph.Kind, weight int64) bool {
		if kind == graph.KindContract && weight > bestW {
			seed, bestW = id, weight
		}
		return true
	})
	if bestW < 0 {
		return fmt.Errorf("experiments: fig2: no contract in the first month")
	}
	// Two-hop BFS neighbourhood, capped.
	sub := graph.New()
	visited := map[graph.VertexID]bool{seed: true}
	frontier := []graph.VertexID{seed}
	for hop := 0; hop < 2 && len(visited) < maxVertices; hop++ {
		var nextFrontier []graph.VertexID
		for _, u := range frontier {
			g.Neighbors(u, func(v graph.VertexID, _ int64) bool {
				if !visited[v] {
					visited[v] = true
					nextFrontier = append(nextFrontier, v)
				}
				return len(visited) < maxVertices
			})
		}
		frontier = nextFrontier
	}
	g.Edges(func(u, v graph.VertexID, wgt int64) bool {
		if visited[u] && visited[v] {
			if err := sub.AddInteraction(u, v, g.VertexKind(u), g.VertexKind(v), wgt); err != nil {
				return false
			}
		}
		return true
	})
	return sub.WriteDOT(w)
}

// Fig3 runs the k=2 time series of Fig. 3 for one method.
func (d *Dataset) Fig3(method sim.Method) (*sim.Result, error) {
	return d.Run(method, 2)
}

// Fig4Cell is one box glyph of Fig. 4: the distribution of a window
// metric for (method, k, period), plus the period's total moves.
type Fig4Cell struct {
	Method   sim.Method
	K        int
	Period   string
	CutStats stats.Summary
	BalStats stats.Summary
	Moves    int64
}

// fig4Periods are the paper's 2017 sub-periods.
var fig4Periods = []struct {
	label      string
	start, end time.Time
}{
	{"01.17-06.17", time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)},
	{"06.17-09.17", time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC), time.Date(2017, 9, 1, 0, 0, 0, 0, time.UTC)},
	{"09.17-12.17", time.Date(2017, 9, 1, 0, 0, 0, 0, time.UTC), time.Date(2017, 12, 1, 0, 0, 0, 0, time.UTC)},
	{"12.17-01.18", time.Date(2017, 12, 1, 0, 0, 0, 0, time.UTC), time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)},
}

// Fig4 computes every cell of Fig. 4 for the given shard counts (the paper
// uses 2 and 8). Uncached method×k combinations are replayed in parallel.
func (d *Dataset) Fig4(ks []int) ([]Fig4Cell, error) {
	if err := d.Prefetch(ks); err != nil {
		return nil, err
	}
	var cells []Fig4Cell
	for _, k := range ks {
		for _, m := range sim.Methods() {
			res, err := d.Run(m, k)
			if err != nil {
				return nil, err
			}
			for _, period := range fig4Periods {
				var cuts, bals []float64
				var moves int64
				for _, win := range res.Windows {
					if win.Start.Before(period.start) || !win.Start.Before(period.end) {
						continue
					}
					if win.Interactions > 0 {
						cuts = append(cuts, win.DynamicCut)
						bals = append(bals, win.DynamicBalance)
					}
					moves += win.Moves
				}
				cells = append(cells, Fig4Cell{
					Method: m, K: k, Period: period.label,
					CutStats: stats.Summarize(cuts),
					BalStats: stats.Summarize(bals),
					Moves:    moves,
				})
			}
		}
	}
	return cells, nil
}

// Fig5Row is one point of Fig. 5: a method at a shard count.
type Fig5Row struct {
	Method sim.Method
	K      int
	// DynamicCut is the run-level cross-shard fraction.
	DynamicCut float64
	// NormBalance is the paper's normalized dynamic balance,
	// (balance−1)/(k−1).
	NormBalance float64
	Moves       int64
	MovedSlots  int64
}

// Fig5 sweeps the shard counts (the paper uses 2, 4, 8) over all methods
// on the full history. Uncached method×k combinations are replayed in
// parallel.
func (d *Dataset) Fig5(ks []int) ([]Fig5Row, error) {
	if err := d.Prefetch(ks); err != nil {
		return nil, err
	}
	var rows []Fig5Row
	for _, m := range sim.Methods() {
		for _, k := range ks {
			res, err := d.Run(m, k)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig5Row{
				Method:      m,
				K:           k,
				DynamicCut:  res.OverallDynamicCut,
				NormBalance: metrics.NormalizedBalance(res.OverallDynamicBalance, k),
				Moves:       res.TotalMoves,
				MovedSlots:  res.TotalMovedSlots,
			})
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Method != rows[j].Method {
			return rows[i].Method < rows[j].Method
		}
		return rows[i].K < rows[j].K
	})
	return rows, nil
}

func monthStart(t time.Time) time.Time {
	return time.Date(t.Year(), t.Month(), 1, 0, 0, 0, 0, time.UTC)
}
