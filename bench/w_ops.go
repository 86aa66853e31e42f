package main

import (
	"fmt"
	"reflect"
	"slices"
	"time"

	"ethpart/internal/directory"
	"ethpart/internal/opsim"
	"ethpart/internal/shardchain"
	"ethpart/internal/sim"
)

// opsMethods leaves METIS out on purpose: the partitioner stays light, so
// a multilevel gain predicts no change on this workload.
var opsMethods = []sim.Method{sim.MethodHash, sim.MethodKL, sim.MethodRMetis, sim.MethodTRMetis}

var opsModels = []shardchain.Model{shardchain.ModelReceipts, shardchain.ModelMigration}

// opsCell is one method × model co-simulation and what a run of it took.
type opsCell struct {
	method sim.Method
	model  shardchain.Model
	res    *opsim.Result
	wall   time.Duration
	// commits is the timing committer spliced in on a traced run.
	commits *timedCommitter
}

func (c *opsCell) label() string { return methodLabel(c.method) + "/" + c.model.String() }

func (c *opsCell) config() opsim.Config {
	return opsim.Config{Sim: sim.Config{Method: c.method, K: shards}, Model: c.model}
}

// timedCommitter times every commit that passes through it to the inner
// committer — the only way to see the directory layer from outside a
// caller that owns the publisher.
type timedCommitter struct {
	inner directory.Committer
	// ns holds every commit's latency, waveNs the wave commits' alone.
	ns, waveNs []int64
	moves      int64
}

func (t *timedCommitter) CommitBatch(b directory.Batch, wave bool) (uint64, error) {
	start := time.Now()
	epoch, err := t.inner.CommitBatch(b, wave)
	d := time.Since(start).Nanoseconds()
	t.ns = append(t.ns, d)
	if wave {
		t.waveNs = append(t.waveNs, d)
	}
	t.moves += int64(len(b.Set) + len(b.SetCold))
	return epoch, err
}

func (t *timedCommitter) total() (ns int64) {
	for _, d := range t.ns {
		ns += d
	}
	return ns
}

// opsPass runs every cell once. On a traced pass each cell commits through
// a timedCommitter and is recorded as a span with its callees' busy time.
func opsPass(env *runEnv, st *setupStats, traced bool) ([]*opsCell, error) {
	var cells []*opsCell
	for _, model := range opsModels {
		for _, m := range opsMethods {
			c := &opsCell{method: m, model: model}
			cfg := c.config()
			if traced {
				cfg.DirCommitter = func(d *directory.Directory) (directory.Committer, error) {
					c.commits = &timedCommitter{inner: d}
					return c.commits, nil
				}
			}
			start := time.Now()
			res, err := opsim.Run(st.gt, cfg)
			end := time.Now()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.label(), err)
			}
			c.res, c.wall = res, end.Sub(start)
			// Only windows and totals are compared; dropping the final
			// snapshot and the simulator (see detach) keeps eight cells'
			// directories, graphs and chains out of the heap.
			res.DirectoryView, res.Sweeps, res.Sim = nil, nil, detach(res.Sim)
			if traced {
				id := env.rec.add(-1, "opsim.run", c.label(), start, end, res.Replayed)
				env.rec.addBusy(id, c.label(),
					busy{"shardchain.step", res.StepNanos, res.Blocks},
					busy{"directory.commit", c.commits.total(), int64(len(c.commits.ns))})
			}
			cells = append(cells, c)
		}
	}
	return cells, nil
}

// sameOps reports whether two runs of a cell replayed to the same windows
// and totals. StepNanos, sweep timings and the snapshot pointer are
// measurement, not simulation state, and are left out.
func sameOps(a, b *opsim.Result) bool {
	return reflect.DeepEqual(a.Windows, b.Windows) && a.Totals == b.Totals &&
		a.Replayed == b.Replayed && a.Blocks == b.Blocks &&
		a.WaveMigrations == b.WaveMigrations && a.WaveMigratedSlots == b.WaveMigratedSlots &&
		reflect.DeepEqual(a.Sim, b.Sim) && *a.DirectoryStats == *b.DirectoryStats
}

// runOpsBridge is the operational path with the partitioner kept light:
// the era history through opsim.Run for four methods under both
// multi-shard models, serial engine, default directory resolver. Chain
// Step, sim.Process, publisher commits and the bridge itself share the
// time; dirserve is never called.
func runOpsBridge(env *runEnv) (*outcome, error) {
	o := newOutcome()
	st, err := runSetup(env, generateEra, nil)
	if err != nil {
		return nil, err
	}
	st.emit(env, o)
	records := len(st.gt.Records) * len(opsModels) * len(opsMethods)
	cells, wall, passes, err := timedPasses(env, o, records,
		func() ([]*opsCell, error) { return opsPass(env, st, false) },
		func(a, b []*opsCell) bool {
			return slices.EqualFunc(a, b, func(x, y *opsCell) bool { return sameOps(x.res, y.res) })
		})
	if err != nil {
		return nil, err
	}
	for _, c := range cells {
		o.attempted += c.res.Replayed * int64(passes)
		o.failed += c.res.Totals.Failed * int64(passes)
		if c.model == shardchain.ModelReceipts {
			countCell(o, methodLabel(c.method), c.res.Sim)
		}
	}
	for _, model := range opsModels {
		for name, v := range modelTotals(cells, model).counts() {
			o.counts[name+"."+model.String()] = v
		}
	}
	if env.rec == nil {
		return o, nil
	}

	tracedStart := time.Now()
	traced, err := opsPass(env, st, true)
	if err != nil {
		return nil, err
	}
	tracedWall := time.Since(tracedStart)
	for i, c := range traced {
		if !sameOps(c.res, cells[i].res) {
			o.failf("%s: traced run's windows and totals differ from the untraced run's", c.label())
		}
	}
	o.metrics["bench.trace_overhead_frac"] = tracedWall.Seconds()/wall.Seconds() - 1

	// The simulator's share of a cell is what the same configuration costs
	// replayed on its own: opsim gives no seam around its Process calls.
	var alone time.Duration
	for _, m := range opsMethods {
		start := time.Now()
		if _, err := sim.Replay(st.gt, sim.Config{Method: m, K: shards}); err != nil {
			return nil, err
		}
		end := time.Now()
		env.rec.add(-1, "sim.replay", methodLabel(m)+" alone", start, end, int64(len(st.gt.Records)))
		alone += end.Sub(start)
	}
	for _, model := range opsModels {
		t := modelTotals(traced, model)
		wall := float64(t.wall.Nanoseconds())
		set := func(name string, v float64) { o.metrics[name+"."+model.String()] = v }
		set("opsim.run_s", t.wall.Seconds())
		set("shardchain.step_share", float64(t.stepNs)/wall)
		set("shardchain.step_us_per_block", float64(t.stepNs)/float64(t.blocks)/nsPerUs)
		set("shardchain.step_ns_per_tx", float64(t.stepNs)/float64(t.replayed))
		set("sim.share", float64(alone.Nanoseconds())/wall)
		set("directory.commit_share", float64(t.commitNs)/wall)
		set("opsim.self_share", 1-float64(t.stepNs+t.commitNs+alone.Nanoseconds())/wall)
		for name, v := range t.counts() {
			set(name, v)
		}
	}

	// The twin engine, on one cell, so the ledger can say which one wins.
	par := &opsCell{method: sim.MethodTRMetis, model: shardchain.ModelReceipts}
	cfg := par.config()
	cfg.Parallel = true
	start := time.Now()
	res, err := opsim.Run(st.gt, cfg)
	if err != nil {
		return nil, fmt.Errorf("parallel engine: %w", err)
	}
	id := env.rec.add(-1, "opsim.run", par.label()+" parallel", start, time.Now(), res.Replayed)
	env.rec.addBusy(id, par.label()+" parallel", busy{"shardchain.step", res.StepNanos, res.Blocks})
	for _, c := range cells {
		if c.method == par.method && c.model == par.model && res.Totals != c.res.Totals {
			o.failf("parallel engine's totals differ from the serial engine's")
		}
	}
	o.metrics["shardchain.step_us_per_block.parallel"] = float64(res.StepNanos) / float64(res.Blocks) / nsPerUs
	return o, nil
}

// opsTotals sums one model's cells.
type opsTotals struct {
	wall                     time.Duration
	stepNs, commitNs         int64
	blocks, replayed, epochs int64
	chain                    shardchain.Stats
}

func modelTotals(cells []*opsCell, model shardchain.Model) *opsTotals {
	t := new(opsTotals)
	for _, c := range cells {
		if c.model != model {
			continue
		}
		t.wall += c.wall
		t.stepNs += c.res.StepNanos
		if c.commits != nil {
			t.commitNs += c.commits.total()
		}
		t.blocks += c.res.Blocks
		t.replayed += c.res.Replayed
		t.epochs += int64(c.res.DirectoryStats.Epoch)
		t.chain.Messages += c.res.Totals.Messages
		t.chain.Migrations += c.res.Totals.Migrations
		t.chain.MigratedSlots += c.res.Totals.MigratedSlots
		t.chain.Failed += c.res.Totals.Failed
	}
	return t
}

// counts are the model's exact outputs, by per-layer metric name.
func (t *opsTotals) counts() map[string]float64 {
	return map[string]float64{
		"shardchain.blocks":         float64(t.blocks),
		"shardchain.messages":       float64(t.chain.Messages),
		"shardchain.migrations":     float64(t.chain.Migrations),
		"shardchain.migrated_slots": float64(t.chain.MigratedSlots),
		"shardchain.failed":         float64(t.chain.Failed),
		"directory.epochs":          float64(t.epochs),
	}
}
