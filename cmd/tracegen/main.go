// Command tracegen generates a synthetic Ethereum interaction trace and
// writes it in the study's dataset format (CSV) — the reproduction of the
// paper's published dataset. Besides the era-based history it can generate
// any composition from the named scenario library (open-loop arrival ×
// population × mix), validate scenarios without generating, and describe
// the library.
//
// Usage:
//
//	tracegen -out trace.csv [-seed 1] [-scale 0.004]
//	tracegen -scenario flash-nft-mint -out trace.csv.gz [-hours 48] [-seed 1]
//	tracegen -list
//	tracegen -describe flash-nft-mint
//	tracegen -validate flash-nft-mint
//
// A flag the mode does not read is an error: -scale beside -scenario (a
// scenario sets its own size), -hours without it, and any generation flag
// beside -list, -describe or -validate.
//
// Output ending in .gz is gzip-compressed; every ethpart tool reads it
// transparently. -cpuprofile FILE and -memprofile FILE write a CPU profile
// of the run and an allocation profile at its end, for go tool pprof.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"ethpart/internal/experiments"
	"ethpart/internal/profile"
	"ethpart/internal/report"
	"ethpart/internal/sim"
	"ethpart/internal/trace"
	"ethpart/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	prof := profile.Register(fs)
	out := fs.String("out", "", "output file (required; '-' for stdout, .gz for gzip)")
	seed := fs.Int64("seed", 1, "history seed")
	scale := fs.Float64("scale", 0.004, "era workload scale (1.0 ≈ the paper's full trace)")
	scenario := fs.String("scenario", "", "generate a named library scenario instead of the era history")
	hours := fs.Float64("hours", 0, "override the scenario's arrival duration (hours; requires -scenario)")
	list := fs.Bool("list", false, "list the scenario library and exit")
	describe := fs.String("describe", "", "describe a named scenario and exit")
	validate := fs.String("validate", "", "validate a named scenario and exit")
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
	if err := experiments.ValidatePositive("-scale", *scale); err != nil {
		return err
	}
	if *scenario == "" && *hours != 0 {
		return fmt.Errorf("-hours requires -scenario")
	}
	if *scenario != "" && set["scale"] {
		return fmt.Errorf("-scale does not apply to -scenario")
	}
	// -list, -describe and -validate generate nothing, so they read no
	// generation flag.
	for _, mode := range []string{"list", "describe", "validate"} {
		for _, gen := range []string{"scale", "seed", "scenario", "hours", "out"} {
			if set[mode] && set[gen] {
				return fmt.Errorf("-%s does not apply to -%s", gen, mode)
			}
		}
	}

	switch {
	case *list:
		for _, sc := range workload.Scenarios() {
			fmt.Fprintf(stdout, "%-20s %s\n", sc.Name, sc.Description)
		}
		return nil
	case *describe != "":
		sc, err := workload.LookupScenario(*describe)
		if err != nil {
			return err
		}
		describeScenario(stdout, sc)
		return nil
	case *validate != "":
		sc, err := workload.LookupScenario(*validate)
		if err != nil {
			return err
		}
		if err := sc.Validate(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s: ok\n", sc.Name)
		return nil
	}

	if *out == "" {
		return fmt.Errorf("-out is required")
	}

	start := time.Now()
	var gt *sim.GeneratedTrace
	if *scenario != "" {
		sc, rerr := workload.ResolveScenario(*scenario, "", *hours, *seed)
		if rerr != nil {
			return rerr
		}
		gt, err = sim.GenerateScenario(sc)
	} else {
		gt, err = sim.Generate(workload.Config{Seed: *seed, Scale: *scale})
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "generated %s interactions, %s vertices in %v\n",
		report.FormatCount(int64(len(gt.Records))),
		report.FormatCount(int64(gt.Registry.Len())),
		time.Since(start).Round(time.Millisecond))

	w, err := trace.CreateFile(*out)
	if err != nil {
		return err
	}
	cw := trace.NewCSVWriter(w)
	for _, rec := range gt.Records {
		if err := cw.Write(rec); err != nil {
			w.Close()
			return err
		}
	}
	if err := cw.Flush(); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// describeScenario prints the full composition of one scenario.
func describeScenario(w io.Writer, sc workload.Scenario) {
	fmt.Fprintf(w, "%s — %s\n", sc.Name, sc.Description)
	a := sc.Arrival
	fmt.Fprintf(w, "  arrival:    %s, %.0f/h base", a.Kind, a.RatePerHour)
	switch a.Kind {
	case workload.ArrivalDiurnal:
		fmt.Fprintf(w, ", amplitude %.2f over a daily cycle", a.Amplitude)
	case workload.ArrivalFlash:
		fmt.Fprintf(w, ", %.0f× spike over [%.2f, %.2f] of the run",
			a.PeakFactor, a.PeakStart, a.PeakStart+a.PeakWidth)
	}
	fmt.Fprintf(w, ", %v from %s\n", a.Duration, a.Start.Format("2006-01-02"))
	p := sc.Population
	fmt.Fprintf(w, "  population: hot-account prob %.2f, recency bias %.2f, new-account frac %.2f\n",
		p.HotProb, p.RecencyBias, sc.NewAccountFrac)
	m := sc.Mix
	parts := []struct {
		name string
		w    float64
	}{
		{"transfer", m.Transfer}, {"token", m.Token}, {"game", m.Game},
		{"airdrop", m.Airdrop}, {"crud", m.CRUD}, {"exchange", m.Exchange},
		{"nft-mint", m.NFTMint},
	}
	total := 0.0
	for _, part := range parts {
		total += part.w
	}
	fmt.Fprintf(w, "  mix:       ")
	for _, part := range parts {
		if part.w > 0 {
			fmt.Fprintf(w, " %s %.0f%%", part.name, 100*part.w/total)
		}
	}
	fmt.Fprintln(w)
}
