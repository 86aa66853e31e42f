package main

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"time"

	"ethpart/internal/graph"
	"ethpart/internal/metrics"
	"ethpart/internal/partition/multilevel"
	"ethpart/internal/sim"
	"ethpart/internal/workload"
)

// sizes are the harness's fixed input sizes. They are constants, not
// flags: a number in the ledger means nothing unless every run that
// produced it did the same work.
type sizes struct {
	// eraScale and eraBlock are the workload.Config scale and block
	// interval of the era history (0.002 ≈ 260k records, 50.5k vertices).
	eraScale float64
	eraBlock time.Duration
	// decayDays and decayRate stretch the diurnal-exchange scenario.
	decayDays int
	decayRate float64
	// setupRepeats is how often an untraced run repeats its set-up.
	setupRepeats int
	// serve-net's read phase is at least readSegments segments of
	// readSegment each.
	readSegment  time.Duration
	readSegments int
	// probeRepeats is how often the shadow probes repeat.
	probeRepeats int
}

var fullSize = sizes{
	eraScale: 0.002, eraBlock: 2 * time.Hour,
	decayDays: 30, decayRate: 600,
	setupRepeats: 3,
	readSegment:  3 * time.Second, readSegments: 5,
	probeRepeats: 3,
}

const (
	shards    = 4
	simWindow = 4 * time.Hour // sim.Config's default metric window
	lookupIDs = 256           // IDs per LookupBatch: both endpoints of 128 records
	mib       = 1 << 20
	nsPerSec  = 1e9
	nsPerMs   = 1e6
	nsPerUs   = 1e3
)

// methodLabel is the metric-name suffix of a method: hash, kl, metis,
// r-metis, tr-metis.
func methodLabel(m sim.Method) string { return strings.ToLower(m.String()) }

// generateEra generates the era history.
func generateEra(env *runEnv) (*sim.GeneratedTrace, error) {
	return sim.Generate(workload.Config{Seed: env.seed, Scale: env.size.eraScale, BlockInterval: env.size.eraBlock})
}

// setupStats is the set-up phase of a run.
type setupStats struct {
	gt *sim.GeneratedTrace
	// setupS is the median wall time of the set-up's repeats, genS of the
	// generation inside them; genAllocs is one generation's malloc count.
	setupS, genS float64
	genAllocs    uint64
}

// runSetup runs the set-up — generation, then the rest — as often as the
// size says (once on a traced run, whose set-up time is not reported) and
// takes the median. Each repeat drops the previous one's product first, so
// the repeats do not add up in the heap.
func runSetup(env *runEnv, generate func(*runEnv) (*sim.GeneratedTrace, error), rest func(*sim.GeneratedTrace) error) (*setupStats, error) {
	repeats := env.size.setupRepeats
	if env.rec != nil {
		repeats = 1
	}
	st := new(setupStats)
	var walls, genWalls []float64
	for i := 0; i < repeats; i++ {
		st.gt = nil
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		gt, err := generate(env)
		if err != nil {
			return nil, fmt.Errorf("generating: %w", err)
		}
		genDone := time.Now()
		runtime.ReadMemStats(&m1)
		if rest != nil {
			if err := rest(gt); err != nil {
				return nil, err
			}
		}
		end := time.Now()
		if env.rec != nil {
			id := env.rec.add(-1, "bench.setup", "", start, end, 0)
			env.rec.add(id, "workload.generate", "", start, genDone, int64(len(gt.Records)))
		}
		st.gt, st.genAllocs = gt, m1.Mallocs-m0.Mallocs
		walls = append(walls, end.Sub(start).Seconds())
		genWalls = append(genWalls, genDone.Sub(start).Seconds())
	}
	q1, q2, q3 := quartiles(walls)
	st.setupS, st.genS = q2, median(genWalls)
	fmt.Fprintf(env.log, "set-up: %d records, %d repeat(s) of %.3f s: median %.3f s (quartiles %.3f %.3f), of which generation %.3f s\n",
		len(st.gt.Records), repeats, walls, q2, q1, q3, st.genS)
	return st, nil
}

// emit records the set-up's end-to-end metrics, and on a traced run the
// workload layer's per-layer ones.
func (st *setupStats) emit(env *runEnv, o *outcome) {
	n := float64(len(st.gt.Records))
	o.metrics["setup_s"] = st.setupS
	o.counts["workload.records"] = n
	if env.rec != nil {
		o.metrics["workload.gen_ns_per_record"] = st.genS * nsPerSec / n
		o.metrics["workload.gen_allocs_per_record"] = float64(st.genAllocs) / n
		o.metrics["workload.records"] = n
	}
}

// timedPasses is the timed region of a replay workload: passes of a fixed
// cell list replaying records records each. It always makes one pass; an
// untraced run makes another for as long as, going by the last one, it
// would end inside the -seconds budget. It checks that every pass
// reproduces the first one's results and records the region's end-to-end
// metrics: records ÷ the median pass's wall time. It returns the first
// pass's results, the median wall time and the number of passes.
func timedPasses[T any](env *runEnv, o *outcome, records int, pass func() (T, error), same func(a, b T) bool) (T, time.Duration, int, error) {
	var first T
	var walls []float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for spent := 0.0; ; {
		start := time.Now()
		res, err := pass()
		if err != nil {
			return first, 0, 0, err
		}
		wall := time.Since(start).Seconds()
		walls = append(walls, wall)
		if len(walls) == 1 {
			first = res
		} else if !same(first, res) {
			o.failf("pass %d replayed to different results than pass 1", len(walls))
		}
		if spent += wall; env.rec != nil || spent+wall > env.seconds {
			break
		}
	}
	runtime.ReadMemStats(&after)
	n, passes := float64(records), float64(len(walls))
	q1, q2, q3 := quartiles(walls)
	fmt.Fprintf(env.log, "timed region: %d pass(es) of %.3f s: median %.3f s (quartiles %.3f %.3f)\n", len(walls), walls, q2, q1, q3)
	o.metrics["records_per_s"] = n / q2
	o.metrics["allocs_per_record"] = float64(after.Mallocs-before.Mallocs) / (n * passes)
	o.metrics["alloc_bytes_per_record"] = float64(after.TotalAlloc-before.TotalAlloc) / (n * passes)
	o.metrics["peak_sys_mb"] = float64(after.Sys) / mib
	return first, time.Duration(q2 * float64(time.Second)), len(walls), nil
}

// cell is one replay configuration of a workload.
type cell struct {
	label string
	cfg   sim.Config
}

// cellProfile is what the traced replay of a cell saw from outside the
// simulator.
type cellProfile struct {
	wall time.Duration
	// steadyNs is the time in Process calls that stayed inside a metric
	// window; flushNs lists the calls that crossed a boundary without a
	// wave, waveNs the calls during which a repartition or resize fired.
	steadyNs, steadyRecs int64
	flushNs, waveNs      []int64
	sweepNs, touched     int64
	// windows is how many metric windows the harness saw close.
	windows, liveMax int
	final            *graph.Graph
}

// detach copies a result out of its simulator. Simulator.Finish returns a
// pointer into the Simulator, so a result kept for the output checks would
// keep the cell's graph — and through the callbacks, on ops-bridge, its
// chain state — in the heap while the next cells run.
func detach(res *sim.Result) *sim.Result {
	r := *res
	return &r
}

// replayPass replays every cell once, untraced, through sim.Replay: the
// path the paper's figures take.
func replayPass(gt *sim.GeneratedTrace, cells []cell) ([]*sim.Result, error) {
	results := make([]*sim.Result, len(cells))
	for i, c := range cells {
		res, err := sim.Replay(gt, c.cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.label, err)
		}
		results[i] = detach(res)
	}
	return results, nil
}

// tracedReplay replays one cell by driving sim.New/Process/Finish itself,
// recording a span per metric window of steady Process calls and one per
// boundary-crossing call. It reads the clock only at window boundaries, so
// the steady path runs as it does untraced.
func tracedReplay(rec *recorder, gt *sim.GeneratedTrace, c cell) (*sim.Result, *cellProfile, error) {
	cfg := c.cfg
	cfg.StorageSlots = gt.StorageSlots // as sim.Replay does
	waved := false
	cfg.OnRepartition = func(time.Time, int) { waved = true }
	cfg.OnResize = func(time.Time, int, int, int) { waved = true }

	prof := new(cellProfile)
	root := rec.begin(-1, "sim.replay", c.label)
	s, err := sim.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	window := int64(simWindow / time.Second)
	if cfg.Window > 0 {
		window = int64(cfg.Window / time.Second)
	}
	var winStart int64
	steadyStart, steadyRecs := time.Now(), int64(0)
	for i, r := range gt.Records {
		if i == 0 {
			winStart = time.Unix(r.Time, 0).UTC().Truncate(time.Duration(window) * time.Second).Unix()
		}
		if r.Time-winStart < window {
			if err := s.Process(r); err != nil {
				return nil, nil, fmt.Errorf("%s: record %d: %w", c.label, i, err)
			}
			steadyRecs++
			continue
		}
		// This call crosses at least one window boundary: it flushes the
		// window, runs the decay sweep and may fire the policy.
		seen := len(s.Sweeps())
		callStart := time.Now()
		err := s.Process(r)
		callEnd := time.Now()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: record %d: %w", c.label, i, err)
		}
		if steadyRecs > 0 {
			rec.add(root, "sim.process", c.label, steadyStart, callStart, steadyRecs)
			prof.steadyNs += callStart.Sub(steadyStart).Nanoseconds()
			prof.steadyRecs += steadyRecs
		}
		name, ns := "sim.flush", &prof.flushNs
		if waved {
			name, ns, waved = "sim.wave", &prof.waveNs, false
		}
		id := rec.add(root, name, c.label, callStart, callEnd, 0)
		*ns = append(*ns, callEnd.Sub(callStart).Nanoseconds())
		var sweepNs int64
		sweeps := s.Sweeps()[seen:]
		for _, ob := range sweeps {
			sweepNs += ob.SweepNanos
			prof.touched += int64(ob.Touched)
			prof.liveMax = max(prof.liveMax, ob.LiveVertices)
		}
		rec.addBusy(id, c.label, busy{"graph.decay_sweep", sweepNs, int64(len(sweeps))})
		prof.sweepNs += sweepNs
		for r.Time-winStart >= window {
			winStart += window
			prof.windows++
		}
		steadyStart, steadyRecs = callEnd, 0
	}
	finishStart := time.Now()
	if steadyRecs > 0 {
		rec.add(root, "sim.process", c.label, steadyStart, finishStart, steadyRecs)
		prof.steadyNs += finishStart.Sub(steadyStart).Nanoseconds()
		prof.steadyRecs += steadyRecs
	}
	res := detach(s.Finish())
	rec.add(root, "sim.finish", c.label, finishStart, time.Now(), 0)
	rec.end(root)
	prof.wall = time.Duration(rec.Spans[root].End - rec.Spans[root].Start)
	prof.liveMax = max(prof.liveMax, res.Vertices)
	prof.final = s.Graph()
	return res, prof, nil
}

// emitCell records the sim and graph per-layer metrics of one traced cell.
func emitCell(o *outcome, label string, res *sim.Result, p *cellProfile) {
	wall := float64(p.wall.Nanoseconds())
	var waveNs int64
	for _, ns := range p.waveNs {
		waveNs += ns
	}
	set := func(name string, v float64) { o.metrics[name+"."+label] = v }
	set("sim.replay_s", p.wall.Seconds())
	if p.steadyRecs > 0 {
		set("sim.process_ns_per_record", float64(p.steadyNs)/float64(p.steadyRecs))
	}
	set("sim.flush_us_p50", nsQuantile(p.flushNs, 0.5)/nsPerUs)
	set("sim.wave_ms_p50", nsQuantile(p.waveNs, 0.5)/nsPerMs)
	set("sim.wave_ms_max", nsQuantile(p.waveNs, 1)/nsPerMs)
	set("sim.wave_share", float64(waveNs)/wall)
	set("sim.waves", float64(len(p.waveNs)))
	set("sim.moves", float64(res.TotalMoves))
	set("sim.resizes", float64(len(res.Resizes)))
	set("sim.dyn_cut", res.OverallDynamicCut)
	set("graph.sweep_share", float64(p.sweepNs)/wall)
	set("graph.sweep_touched", float64(p.touched))
}

// countCell pins a cell's exact outputs.
func countCell(o *outcome, label string, res *sim.Result) {
	o.counts["sim.dyn_cut."+label] = res.OverallDynamicCut
	o.counts["sim.moves."+label] = float64(res.TotalMoves)
	o.counts["sim.repartitions."+label] = float64(res.Repartitions)
	o.counts["sim.resizes."+label] = float64(len(res.Resizes))
}

// probeGraph runs the shadow probes on a cell's final graph: a one-shot
// CSR build and a k-way multilevel partition of it, each the median of the
// size's repeats. They time the two callees of a repartition wave that the
// simulator gives no seam around.
func probeGraph(env *runEnv, o *outcome, g *graph.Graph) error {
	var csr *graph.CSR
	var buildMs, partMs []float64
	var parts []int
	for i := 0; i < env.size.probeRepeats; i++ {
		start := time.Now()
		csr = graph.NewCSR(g)
		built := time.Now()
		p, err := multilevel.New(multilevel.Config{}).Partition(csr, shards)
		end := time.Now()
		if err != nil {
			return fmt.Errorf("multilevel probe: %w", err)
		}
		parts = p
		id := env.rec.add(-1, "bench.probe", "", start, end, 0)
		env.rec.add(id, "graph.csr_build", "", start, built, 0)
		env.rec.add(id, "multilevel.partition", "", built, end, 0)
		buildMs = append(buildMs, float64(built.Sub(start).Nanoseconds())/nsPerMs)
		partMs = append(partMs, float64(end.Sub(built).Nanoseconds())/nsPerMs)
	}
	o.metrics["graph.csr_build_ms"] = median(buildMs)
	o.metrics["graph.vertices"] = float64(g.VertexCount())
	o.metrics["graph.edges"] = float64(g.EdgeCount())
	o.metrics["multilevel.partition_ms"] = median(partMs)
	if csr.NumEdges > 0 {
		o.metrics["multilevel.ns_per_edge"] = median(partMs) * nsPerMs / float64(csr.NumEdges)
	}
	o.metrics["multilevel.cut_frac"] = metrics.EdgeCutParts(csr, parts, false)
	return nil
}

// replayWorkload is the shared body of fig-replay and decay-hub: set-up is
// generation; the timed region replays every cell serially; a traced run
// adds one traced pass and checks it against the untraced results.
func replayWorkload(env *runEnv, generate func(*runEnv) (*sim.GeneratedTrace, error), cells []cell) (*outcome, error) {
	o := newOutcome()
	st, err := runSetup(env, generate, nil)
	if err != nil {
		return nil, err
	}
	st.emit(env, o)
	gt := st.gt
	records := len(gt.Records) * len(cells)
	results, wall, passes, err := timedPasses(env, o, records,
		func() ([]*sim.Result, error) { return replayPass(gt, cells) },
		func(a, b []*sim.Result) bool { return reflect.DeepEqual(a, b) })
	if err != nil {
		return nil, err
	}
	o.attempted = int64(records * passes)
	for i, c := range cells {
		countCell(o, c.label, results[i])
	}
	o.counts["graph.vertices"] = float64(results[0].Vertices)
	o.counts["graph.edges"] = float64(results[0].Edges)
	if env.rec == nil {
		return o, nil
	}

	var traced time.Duration
	var last *cellProfile
	for i, c := range cells {
		res, prof, err := tracedReplay(env.rec, gt, c)
		if err != nil {
			return nil, err
		}
		if !reflect.DeepEqual(res, results[i]) {
			o.failf("%s: traced replay's result differs from sim.Replay's", c.label)
		}
		if got, want := prof.windows+1, len(res.Windows); got != want {
			o.failf("%s: harness saw %d metric windows, the simulator flushed %d", c.label, got, want)
		}
		emitCell(o, c.label, res, prof)
		o.metrics["graph.live_vertices_max"] = max(o.metrics["graph.live_vertices_max"], float64(prof.liveMax))
		traced += prof.wall
		last = prof
	}
	o.metrics["bench.trace_overhead_frac"] = traced.Seconds()/wall.Seconds() - 1
	return o, probeGraph(env, o, last.final)
}
