// Command experiments regenerates the paper's figures from a synthetic
// Ethereum history. Each subcommand prints a human-readable rendering to
// stdout and, with -csv, writes machine-readable CSV files.
//
// Usage:
//
//	experiments [flags] fig1|fig2|fig3|fig4|fig5|costs|shardaware|decaycost|scalecost|scenariocost|all
//
// Flags:
//
//	-seed N      history seed (default 1)
//	-scale F     workload scale (default 0.004); not with -scenario, which
//	             sets its own size, nor for the subcommands that generate
//	             their own histories
//	-scenario S  generate the history from a named open-loop scenario
//	             (tracegen -list names them) instead of the era schedule;
//	             not for the subcommands that generate their own histories
//	-arrival A   override the scenario's arrival process (poisson|diurnal|flash);
//	             requires -scenario
//	-csv DIR     also write CSV files into DIR
//	-method M    fig3 method: hash|kl|metis|r-metis|tr-metis (default both
//	             hash and metis, as in the paper)
//	-decay-half-life D  windowed graph decay half-life (0 = full history,
//	             as in the paper); bounds live-graph size on long traces
//	-horizon D   decay retention horizon (0 = 4x the half-life)
//	-k N         shard count of costs, shardaware, decaycost and
//	             scenariocost (default 4)
//	-k-min N, -k-max N  scalecost's fixed baselines and autoscaler range
//	             (default 2 and 8)
//	-hours H     scenariocost: shorten every scenario's arrival window
//	-cpuprofile FILE, -memprofile FILE  write a CPU profile of the run and
//	             an allocation profile at its end, for go tool pprof
//
// Every shard count must be at least 1, -k-max at least -k-min and -scale
// positive, and a flag the subcommand would ignore is an error; the flags
// are checked before any history is generated.
//
// costs, decaycost, scalecost and scenariocost are operational figures:
// each replays its history through the live sharded chain
// (experiments.RunOps) and reports what the chain measured. costs prices
// those measurements — cross-shard messages, relocated accounts and slots —
// at datacenter and wide-area prices (experiments.Prices).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"ethpart/internal/experiments"
	"ethpart/internal/profile"
	"ethpart/internal/report"
	"ethpart/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		// internal/experiments' errors carry the package's name, which is
		// also this program's: print it once.
		fmt.Fprintln(os.Stderr, "experiments:", strings.TrimPrefix(err.Error(), "experiments: "))
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	prof := profile.Register(fs)
	seed := fs.Int64("seed", 1, "history seed")
	scale := fs.Float64("scale", 0.004, "workload scale")
	scenario := fs.String("scenario", "", "generate the history from a named library scenario instead of the era schedule")
	arrival := fs.String("arrival", "", "override the scenario's arrival process: poisson|diurnal|flash")
	hours := fs.Float64("hours", 0, "scenariocost: override every scenario's arrival duration (hours)")
	csvDir := fs.String("csv", "", "directory for CSV output (optional)")
	method := fs.String("method", "", "fig3 method (default: hash and metis)")
	k := fs.Int("k", 4, "shard count for the extension subcommands")
	kmin := fs.Int("k-min", 2, "scalecost: smallest shard count (fixed baseline and autoscaler floor)")
	kmax := fs.Int("k-max", 8, "scalecost: largest shard count (fixed baseline and autoscaler ceiling)")
	decay := fs.Duration("decay-half-life", 0, "enable windowed graph decay with this half-life (0 = full history, as in the paper)")
	horizon := fs.Duration("horizon", 0, "decay retention horizon (0 = 4x the half-life)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	stop, err := prof.Start()
	if err != nil {
		return err
	}
	defer stop(&err)
	if err := experiments.ValidateDecayFlags(*decay, *horizon); err != nil {
		return err
	}
	if err := experiments.ValidateShards("-k", *k); err != nil {
		return err
	}
	if err := experiments.ValidatePositive("-scale", *scale); err != nil {
		return err
	}
	if err := experiments.ValidateShards("-k-min", *kmin); err != nil {
		return err
	}
	if *kmax < *kmin {
		return fmt.Errorf("-k-max %d is below -k-min %d", *kmax, *kmin)
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected one subcommand: fig1|fig2|fig3|fig4|fig5|costs|shardaware|decaycost|scalecost|scenariocost|all")
	}
	cmd := fs.Arg(0)

	// shardaware, decaycost, scalecost and scenariocost generate their own
	// histories, so the history flags do not reach them (shardaware reads
	// -scale); a scenario sets its own size; -hours reaches only
	// scenariocost.
	ownHistories := cmd == "decaycost" || cmd == "scalecost" || cmd == "scenariocost"
	switch {
	case *scenario == "" && *arrival != "":
		return fmt.Errorf("-arrival requires -scenario")
	case (*scenario != "" || *arrival != "") && (cmd == "shardaware" || ownHistories):
		return fmt.Errorf("-scenario/-arrival do not apply to %s, which generates its own histories", cmd)
	case *scenario != "" && set["scale"]:
		return fmt.Errorf("-scale does not apply to -scenario")
	case ownHistories && set["scale"]:
		return fmt.Errorf("-scale does not apply to %s, which generates its own histories", cmd)
	case *hours != 0 && cmd != "scenariocost":
		return fmt.Errorf("-hours applies to scenariocost only")
	}
	out := output{dir: *csvDir, w: stdout}
	if cmd == "shardaware" {
		return shardaware(*seed, *scale, out, *k, *decay, *horizon)
	}
	if cmd == "decaycost" {
		return decaycost(*seed, out, *k, *decay, *horizon)
	}
	if cmd == "scalecost" {
		return scalecost(*seed, out, *kmin, *kmax)
	}
	if cmd == "scenariocost" {
		return scenariocost(*seed, out, *k, *hours)
	}

	if *scenario != "" {
		fmt.Fprintf(stdout, "generating scenario history (scenario=%s seed=%d)...\n", *scenario, *seed)
	} else {
		fmt.Fprintf(stdout, "generating synthetic history (seed=%d scale=%g)...\n", *seed, *scale)
	}
	start := time.Now()
	ds, err := experiments.NewDataset(experiments.Params{
		Seed: *seed, Scale: *scale,
		Scenario: *scenario, Arrival: *arrival,
		DecayHalfLife: *decay, Horizon: *horizon,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "history ready in %v: %s interactions, %s vertices\n\n",
		time.Since(start).Round(time.Millisecond),
		report.FormatCount(int64(len(ds.GT.Records))),
		report.FormatCount(int64(ds.GT.Registry.Len())))

	switch cmd {
	case "fig1":
		return fig1(ds, out)
	case "fig2":
		return fig2(ds, out)
	case "fig3":
		return fig3(ds, out, *method)
	case "fig4":
		return fig4(ds, out)
	case "fig5":
		return fig5(ds, out)
	case "costs":
		return costs(ds, out, *k)
	case "all":
		// Warm the result cache with one parallel sweep over every
		// method × k the figures need (fig3 uses k=2, fig4 k∈{2,8},
		// fig5 k∈{2,4,8}); the figure renderers then serve from cache.
		if err := ds.Prefetch([]int{2, 4, 8}); err != nil {
			return err
		}
		for _, f := range []func() error{
			func() error { return fig1(ds, out) },
			func() error { return fig2(ds, out) },
			func() error { return fig3(ds, out, *method) },
			func() error { return fig4(ds, out) },
			func() error { return fig5(ds, out) },
		} {
			if err := f(); err != nil {
				return err
			}
			fmt.Fprintln(stdout)
		}
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

// output is where a figure goes: its rendering to w and, when dir is set,
// its CSVs into dir.
type output struct {
	dir string
	w   io.Writer
}

func (o output) csv(name string, headers []string, rows [][]string) error {
	if o.dir == "" {
		return nil
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := errors.Join(report.CSV(f, headers, rows), f.Close()); err != nil {
		return err
	}
	fmt.Fprintf(o.w, "  wrote %s\n", path)
	return nil
}

func fig1(ds *experiments.Dataset, out output) error {
	fmt.Fprintln(out.w, "=== Fig 1: Ethereum graph evolution (vertices and edges per month) ===")
	rows, eras, err := ds.Fig1()
	if err != nil {
		return err
	}
	var verts, edges []float64
	var table [][]string
	for _, r := range rows {
		verts = append(verts, float64(r.Vertices))
		edges = append(edges, float64(r.Edges))
		table = append(table, []string{
			r.Month.Format("01.06"),
			report.FormatCount(r.Vertices),
			report.FormatCount(r.Edges),
		})
	}
	if err := report.Table(out.w, []string{"month", "vertices", "edges"}, table); err != nil {
		return err
	}
	fmt.Fprintf(out.w, "\n  vertices (log): %s\n", report.SparklineLog(verts))
	fmt.Fprintf(out.w, "  edges    (log): %s\n", report.SparklineLog(edges))
	for _, e := range eras {
		fmt.Fprintf(out.w, "  era %-10s %s -> %s\n", e.Name,
			e.Start.Format("01.06"), e.End.Format("01.06"))
	}
	split := time.Date(2016, 11, 1, 0, 0, 0, 0, time.UTC)
	pre, post, err := experiments.Fig1GrowthFit(rows, split)
	if err == nil {
		fmt.Fprintf(out.w, "  edge growth rate: %.3f/month pre-attack (exponential), %.3f/month after (slower)\n", pre, post)
	}
	return out.csv("fig1.csv", []string{"month", "vertices", "edges"}, table)
}

func fig2(ds *experiments.Dataset, out output) error {
	fmt.Fprintln(out.w, "=== Fig 2: example subgraph (DOT) ===")
	return ds.Fig2(out.w, 24)
}

func fig3(ds *experiments.Dataset, out output, methodFlag string) error {
	methods := []sim.Method{sim.MethodHash, sim.MethodMetis}
	if methodFlag != "" {
		m, err := sim.ParseMethod(methodFlag)
		if err != nil {
			return err
		}
		methods = []sim.Method{m}
	}
	for _, m := range methods {
		fmt.Fprintf(out.w, "=== Fig 3: %v, k=2, 4-hour windows ===\n", m)
		res, err := ds.Fig3(m)
		if err != nil {
			return err
		}
		var dynCut, dynBal, statCut, statBal []float64
		var rows [][]string
		for _, w := range res.Windows {
			dynCut = append(dynCut, w.DynamicCut)
			dynBal = append(dynBal, w.DynamicBalance)
			statCut = append(statCut, w.StaticCut)
			statBal = append(statBal, w.StaticBalance)
			rows = append(rows, []string{
				w.Start.Format("2006-01-02T15"),
				report.FormatFloat(w.DynamicCut),
				report.FormatFloat(w.StaticCut),
				report.FormatFloat(w.DynamicBalance),
				report.FormatFloat(w.StaticBalance),
				strconv.FormatInt(w.Moves, 10),
			})
		}
		fmt.Fprintf(out.w, "  dynamic cut:     %s\n", sampled(dynCut))
		fmt.Fprintf(out.w, "  static  cut:     %s\n", sampled(statCut))
		fmt.Fprintf(out.w, "  dynamic balance: %s\n", sampled(dynBal))
		fmt.Fprintf(out.w, "  static  balance: %s\n", sampled(statBal))
		fmt.Fprintf(out.w, "  windows=%d repartitions=%d moves=%s\n",
			len(res.Windows), res.Repartitions, report.FormatCount(res.TotalMoves))
		name := fmt.Sprintf("fig3_%v.csv", m)
		if err := out.csv(name,
			[]string{"window", "dyn_cut", "static_cut", "dyn_balance", "static_balance", "moves"},
			rows); err != nil {
			return err
		}
	}
	return nil
}

// sampled down-samples a series to 100 sparkline columns.
func sampled(values []float64) string {
	const cols = 100
	if len(values) <= cols {
		return report.Sparkline(values)
	}
	out := make([]float64, cols)
	for i := 0; i < cols; i++ {
		lo := i * len(values) / cols
		hi := (i + 1) * len(values) / cols
		var sum float64
		for _, v := range values[lo:hi] {
			sum += v
		}
		out[i] = sum / float64(hi-lo)
	}
	return report.Sparkline(out)
}

func fig4(ds *experiments.Dataset, out output) error {
	fmt.Fprintln(out.w, "=== Fig 4: method comparison over 2017 periods (k=2 and k=8) ===")
	cells, err := ds.Fig4([]int{2, 8})
	if err != nil {
		return err
	}
	var rows [][]string
	for _, c := range cells {
		rows = append(rows, []string{
			strconv.Itoa(c.K), c.Method.String(), c.Period,
			report.FormatFloat(c.CutStats.Median),
			report.FormatFloat(c.CutStats.Q1), report.FormatFloat(c.CutStats.Q3),
			report.FormatFloat(c.BalStats.Median),
			report.FormatFloat(c.BalStats.Q1), report.FormatFloat(c.BalStats.Q3),
			report.FormatCount(c.Moves),
		})
	}
	if err := report.Table(out.w, []string{
		"k", "method", "period",
		"cut_med", "cut_q1", "cut_q3",
		"bal_med", "bal_q1", "bal_q3", "moves",
	}, rows); err != nil {
		return err
	}
	// Box plots per k for the dynamic cut.
	for _, k := range []int{2, 8} {
		fmt.Fprintf(out.w, "\n  dynamic edge-cut, k=%d (range 0..1):\n", k)
		for _, c := range cells {
			if c.K != k || c.Period != "01.17-06.17" {
				continue
			}
			fmt.Fprintf(out.w, "    %-9s %s\n", c.Method, report.BoxPlot(c.CutStats, 0, 1, 50))
		}
	}
	return out.csv("fig4.csv", []string{
		"k", "method", "period", "cut_med", "cut_q1", "cut_q3",
		"bal_med", "bal_q1", "bal_q3", "moves",
	}, rows)
}

func fig5(ds *experiments.Dataset, out output) error {
	fmt.Fprintln(out.w, "=== Fig 5: shard-count sweep (k = 2, 4, 8) ===")
	rows5, err := ds.Fig5([]int{2, 4, 8})
	if err != nil {
		return err
	}
	var rows [][]string
	for _, r := range rows5 {
		rows = append(rows, []string{
			r.Method.String(), strconv.Itoa(r.K),
			report.FormatFloat(r.DynamicCut),
			report.FormatFloat(r.NormBalance),
			report.FormatCount(r.Moves),
			report.FormatCount(r.MovedSlots),
		})
	}
	if err := report.Table(out.w, []string{
		"method", "k", "dyn_cut", "norm_balance", "moves", "moved_slots",
	}, rows); err != nil {
		return err
	}
	return out.csv("fig5.csv", []string{
		"method", "k", "dyn_cut", "norm_balance", "moves", "moved_slots",
	}, rows)
}
