package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"ethpart/internal/experiments"
	"ethpart/internal/report"
	"ethpart/internal/sim"
)

// runOps executes the ops subcommand: generate a seeded workload, replay it
// through a live sharded chain for every method under both multi-shard
// models, and report per-window and total operational metrics.
func runOps(args []string) error {
	fs := flag.NewFlagSet("ethpart ops", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "workload seed")
	scale := fs.Float64("scale", 0.002, "workload scale")
	scenario := fs.String("scenario", "", "replay a named library scenario instead of the era history")
	arrival := fs.String("arrival", "", "override the scenario's arrival process: poisson|diurnal|flash")
	k := fs.Int("k", 2, "number of shards")
	window := fs.Duration("window", 4*time.Hour, "metric window")
	repartition := fs.Duration("repartition", 14*24*time.Hour, "repartition period")
	blockInterval := fs.Duration("block", 2*time.Hour, "simulated block interval")
	csvOut := fs.Bool("csv", false, "emit per-window CSV instead of the summary table")
	decay := fs.Duration("decay-half-life", 0, "enable windowed graph decay with this half-life (0 = full history)")
	horizon := fs.Duration("horizon", 0, "decay retention horizon (0 = 4x the half-life)")
	autoscale := fs.Bool("autoscale", false, "let the saturation controller resize the shard count at window boundaries")
	kmin := fs.Int("k-min", 0, "autoscaler floor (0 = 1)")
	kmax := fs.Int("k-max", 0, "autoscaler ceiling (0 = 4x k)")
	targetLoad := fs.Int64("target-load", 0, "autoscaler per-shard window-load target (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := experiments.ValidateDecayFlags(*decay, *horizon); err != nil {
		return err
	}
	if err := experiments.ValidateShards("ops: -k", *k); err != nil {
		return err
	}
	if err := cmp.Or(
		experiments.ValidatePositive("ops: -scale", *scale),
		experiments.ValidatePositive("ops: -window", *window),
		experiments.ValidatePositive("ops: -repartition", *repartition),
		experiments.ValidatePositive("ops: -block", *blockInterval),
	); err != nil {
		return err
	}
	if *scenario == "" && *arrival != "" {
		return fmt.Errorf("ops: -arrival requires -scenario")
	}
	if *scenario != "" && set["scale"] {
		return fmt.Errorf("ops: -scale does not apply to -scenario")
	}
	var ac sim.AutoscaleConfig
	if *autoscale {
		ac = sim.AutoscaleConfig{
			Enabled:          true,
			KMin:             *kmin,
			KMax:             *kmax,
			TargetWindowLoad: *targetLoad,
		}
		if ac.KMin > 0 && ac.KMin > *k {
			return fmt.Errorf("ops: -k-min %d exceeds -k %d", ac.KMin, *k)
		}
		if ac.KMax > 0 && ac.KMax < *k {
			return fmt.Errorf("ops: -k-max %d is below -k %d", ac.KMax, *k)
		}
	} else if *kmin != 0 || *kmax != 0 || *targetLoad != 0 {
		return fmt.Errorf("ops: -k-min/-k-max/-target-load require -autoscale")
	}

	start := time.Now()
	ds, err := experiments.NewDataset(experiments.Params{
		Seed:             *seed,
		Scale:            *scale,
		Scenario:         *scenario,
		Arrival:          *arrival,
		BlockInterval:    *blockInterval,
		Window:           *window,
		RepartitionEvery: *repartition,
		DecayHalfLife:    *decay,
		Horizon:          *horizon,
		Autoscale:        ac,
	})
	if err != nil {
		return err
	}
	rows, err := ds.Operational(*k)
	if err != nil {
		return err
	}
	if *csvOut {
		return opsCSV(os.Stdout, rows)
	}
	fmt.Printf("replayed %s interactions × %d method/model runs in %v\n\n",
		report.FormatCount(int64(len(ds.GT.Records))), len(rows),
		time.Since(start).Round(time.Millisecond))
	// shrd-win is the shard-windows provisioned over the run — with the
	// autoscaler the capacity-cost series summed; without it, windows × k.
	headers, table := experiments.OpsTable(rows,
		"method", "model", "dyn-cut=dyn_cut", "cross-txs", "messages", "latency(blk)",
		"migrations", "slots=migrated_slots", "failed", "shrd-win=shard_windows",
		"resizes", "ms/blk")
	return report.Table(os.Stdout, headers, table)
}

// opsCSV emits every window of every run as one CSV stream. Windows in
// which nothing settled leave mean_settlement_blocks empty: the mean of
// zero settlements is undefined, and the raw quotient used to print NaN.
// The trailing sweep columns expose the decay hot path per window: live
// graph size when the window flushed, the wall-clock cost of the sweep
// that followed it, and whether the cut recount was skipped because the
// sweep was quiet. Runs without decay never sweep, so they report zero
// sweep time and every recount skipped.
func opsCSV(w io.Writer, rows []experiments.OpsRow) error {
	headers := []string{
		"method", "model", "window_start", "shards", "interactions",
		"cross_txs", "messages", "receipts_settled", "mean_settlement_blocks",
		"migrations", "migrated_slots", "failed", "dynamic_cut",
		"live_graph", "sweep_ns", "recount_skipped",
	}
	var out [][]string
	for _, row := range rows {
		sweeps := map[int64]sim.SweepObs{}
		for _, so := range row.Result.Sweeps {
			sweeps[so.Start.Unix()] = so
		}
		for _, win := range row.Result.Windows {
			settlement := ""
			if win.ReceiptsSettled > 0 {
				settlement = fmt.Sprintf("%.3f", win.MeanSettlement())
			}
			liveGraph, sweepNs, skipped := "", "", ""
			if so, ok := sweeps[win.Start.Unix()]; ok {
				liveGraph = strconv.Itoa(so.LiveVertices)
				sweepNs = strconv.FormatInt(so.SweepNanos, 10)
				skipped = strconv.FormatBool(so.RecountSkipped)
			}
			out = append(out, []string{
				row.Result.Method.String(),
				row.Result.Model.String(),
				win.Start.UTC().Format(time.RFC3339),
				strconv.Itoa(win.Shards),
				strconv.FormatInt(win.Interactions, 10),
				strconv.FormatInt(win.CrossTxs, 10),
				strconv.FormatInt(win.Messages, 10),
				strconv.FormatInt(win.ReceiptsSettled, 10),
				settlement,
				strconv.FormatInt(win.Migrations, 10),
				strconv.FormatInt(win.MigratedSlots, 10),
				strconv.FormatInt(win.Failed, 10),
				fmt.Sprintf("%.6f", win.DynamicCut),
				liveGraph,
				sweepNs,
				skipped,
			})
		}
	}
	return report.CSV(w, headers, out)
}
