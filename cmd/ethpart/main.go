// Command ethpart replays an interaction trace (produced by tracegen or
// converted from a real blockchain) under one of the paper's five
// partitioning methods and reports edge-cut, balance and move metrics.
//
// Usage:
//
//	ethpart -trace trace.csv[.gz] -method metis -k 4 [-window 4h] [-repartition 336h]
//	        [-decay-half-life 168h] [-horizon 672h]
//	ethpart -scenario flash-nft-mint [-arrival poisson] [-hours 48] [-seed 1] [-method metis]
//	ethpart ops [-seed 1] [-scale 0.002] [-scenario diurnal-exchange [-arrival flash]]
//	        [-k 2] [-csv] [-decay-half-life 168h] [-horizon 672h]
//	        [-autoscale [-k-min 1] [-k-max 8] [-target-load 1024]]
//	ethpart chaos [-scenario all] [-workload diurnal-exchange [-arrival flash]]
//	        [-seed 1] [-k 4] [-eras 6] [-windows-per-era 6]
//	        [-replicas 2] [-csv]
//
// -trace accepts gzip-compressed traces (sniffed by magic bytes, so both
// trace.csv.gz and renamed compressed files work). -scenario replays a
// named open-loop scenario from the workload library instead of a file;
// tracegen -list names them. In chaos the -scenario flag keeps its
// original meaning (the fault-scenario library), so the workload scenario
// is selected with -workload there.
//
// With -decay-half-life the replay runs in windowed-decay mode: the
// cumulative graph ages at every window boundary and entries idle past the
// retention horizon retire, so memory and repartition cost stay bounded by
// the active set on arbitrarily long traces (shard assignments stay sticky
// through retirement).
//
// The ops subcommand runs the operational co-simulation: every method is
// replayed through a live sharded chain under both multi-shard models and
// the edge-cut curves gain operational twins — cross-shard messages,
// settlement latency, migrated state and failed transactions. Homes are
// resolved through the concurrent placement directory
// (internal/directory). With -autoscale the shard count becomes a control
// variable: the saturation controller splits and merges shards at window
// boundaries between -k-min and -k-max, and the report gains
// shards-provisioned-over-time (shrd-win, and a per-window shards column
// in -csv) beside the resize count.
//
// chaos -replicas N also replicates every scenario's directory commits
// over loopback TCP to N replica processes, each applying through its own
// fault plane (derived seed); their final views must converge
// entry-by-entry to the in-process oracle with zero torn epochs. The
// default, 0, keeps the run in-process.
//
// -horizon without -decay-half-life is rejected at flag-parse time by
// every subcommand (the horizon is the decay subsystem's retention bound
// and would otherwise be silently ignored).
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"ethpart/internal/experiments"
	"ethpart/internal/report"
	"ethpart/internal/sim"
	"ethpart/internal/trace"
	"ethpart/internal/workload"
)

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "ops":
		err = runOps(args[1:])
	case len(args) > 0 && args[0] == "chaos":
		err = runChaos(args[1:])
	case len(args) > 0 && !strings.HasPrefix(args[0], "-"):
		err = fmt.Errorf("unknown subcommand %q (subcommands: ops, chaos; a replay takes flags only)", args[0])
	default:
		err = run(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ethpart:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ethpart", flag.ContinueOnError)
	tracePath := fs.String("trace", "", "trace CSV file ('-' for stdin, .gz read transparently)")
	scenario := fs.String("scenario", "", "replay a named library scenario instead of a trace file")
	arrival := fs.String("arrival", "", "override the scenario's arrival process: poisson|diurnal|flash")
	hours := fs.Float64("hours", 0, "override the scenario's arrival duration (hours)")
	seed := fs.Int64("seed", 1, "scenario seed (with -scenario)")
	methodFlag := fs.String("method", "metis", "method: hash|kl|metis|r-metis|tr-metis")
	k := fs.Int("k", 2, "number of shards")
	window := fs.Duration("window", 4*time.Hour, "metric window")
	repartition := fs.Duration("repartition", 14*24*time.Hour, "repartition period")
	cutThreshold := fs.Float64("cut-threshold", 0, "TR-METIS dynamic edge-cut trigger (0 = default)")
	balThreshold := fs.Float64("balance-threshold", 0, "TR-METIS dynamic balance trigger (0 = default)")
	decay := fs.Duration("decay-half-life", 0, "enable windowed graph decay with this half-life (0 = full history)")
	horizon := fs.Duration("horizon", 0, "decay retention horizon (0 = 4x the half-life)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := experiments.ValidateDecayFlags(*decay, *horizon); err != nil {
		return err
	}
	if err := experiments.ValidateShards("-k", *k); err != nil {
		return err
	}
	if err := cmp.Or(
		experiments.ValidatePositive("-window", *window),
		experiments.ValidatePositive("-repartition", *repartition),
	); err != nil {
		return err
	}
	if (*tracePath == "") == (*scenario == "") {
		return fmt.Errorf("exactly one of -trace or -scenario is required")
	}
	if *scenario == "" && (*arrival != "" || *hours != 0 || set["seed"]) {
		return fmt.Errorf("-arrival/-hours/-seed require -scenario")
	}
	method, err := sim.ParseMethod(*methodFlag)
	if err != nil {
		return err
	}

	s, err := sim.New(sim.Config{
		Method:           method,
		K:                *k,
		Window:           *window,
		RepartitionEvery: *repartition,
		CutThreshold:     *cutThreshold,
		BalanceThreshold: *balThreshold,
		DecayHalfLife:    *decay,
		Horizon:          *horizon,
	})
	if err != nil {
		return err
	}

	start := time.Now()
	// One loop serves both inputs. A scenario streams block by block
	// straight into the simulator, so the full record slice is never
	// materialised; a trace file is read row by row.
	var src trace.RecordSource
	if *scenario != "" {
		sc, err := workload.ResolveScenario(*scenario, *arrival, *hours, *seed)
		if err != nil {
			return err
		}
		gen, err := workload.NewScenario(sc)
		if err != nil {
			return err
		}
		src = gen.Stream()
	} else {
		in, err := trace.OpenFile(*tracePath)
		if err != nil {
			return err
		}
		defer in.Close()
		src = trace.NewCSVReader(in)
	}
	var n, skipped int64
	for {
		rec, err := src.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		// A malformed record is confined to its line: report it and keep
		// the tail of the dataset instead of aborting the replay.
		var re *trace.RecordError
		if errors.As(err, &re) {
			fmt.Fprintln(os.Stderr, "ethpart: skipping", re)
			skipped++
			continue
		}
		if err != nil {
			return err
		}
		if err := s.Process(rec); err != nil {
			return err
		}
		n++
	}
	res := s.Finish()

	fmt.Printf("replayed %s interactions in %v", report.FormatCount(n), time.Since(start).Round(time.Millisecond))
	if skipped > 0 {
		fmt.Printf(" (%s malformed records skipped)", report.FormatCount(skipped))
	}
	fmt.Printf("\n\n")
	rows := [][]string{
		{"method", res.Method.String()},
		{"shards", strconv.Itoa(res.K)},
		{"vertices", report.FormatCount(int64(res.Vertices))},
		{"edges", report.FormatCount(int64(res.Edges))},
		{"dynamic edge-cut", report.FormatFloat(res.OverallDynamicCut)},
		{"dynamic balance", report.FormatFloat(res.OverallDynamicBalance)},
		{"static edge-cut", report.FormatFloat(res.FinalStaticCut)},
		{"static balance", report.FormatFloat(res.FinalStaticBalance)},
		{"repartitions", strconv.Itoa(res.Repartitions)},
		{"moves", report.FormatCount(res.TotalMoves)},
		{"moved storage slots", report.FormatCount(res.TotalMovedSlots)},
		{"windows", strconv.Itoa(len(res.Windows))},
	}
	return report.Table(os.Stdout, []string{"metric", "value"}, rows)
}
