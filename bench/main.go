// Command bench is the repository's performance ledger: four named,
// seeded workloads that drive the pipeline's layers through their public
// functions, print every metric BENCHMARK.json declares, and check the
// outputs. See README.md in this directory.
//
//	go run ./bench -workload fig-replay -seed 1            # end-to-end metrics
//	go run ./bench -workload fig-replay -seed 1 -trace 1   # per-layer metrics
//	go run ./bench -compare before.json after.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// outcome is what one workload run measured.
type outcome struct {
	// metrics holds the values the workload measured itself, by declared
	// name: end-to-end ones always, per-layer ones on a traced run.
	metrics map[string]float64
	// counts are the exact, seed-determined outputs of the run; two runs
	// of one seed must agree on every one of them bit for bit.
	counts map[string]float64
	// attempted and failed count operations (see README: failed_frac).
	attempted, failed int64
	// failures lists every output check that did not hold.
	failures []string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, counts: map[string]float64{}}
}

func (o *outcome) failf(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// runEnv is what a workload is handed.
type runEnv struct {
	seed    int64
	seconds float64
	size    *sizes
	// rec is non-nil on a traced run.
	rec *recorder
	// log receives progress lines (quartiles, lateness, cell timings).
	log io.Writer
}

// namedWorkload is one named set of inputs.
type namedWorkload struct {
	name string
	run  func(env *runEnv) (*outcome, error)
}

var workloads = []namedWorkload{
	{"fig-replay", runFigReplay},
	{"ops-bridge", runOpsBridge},
	{"decay-hub", runDecayHub},
	{"serve-net", runServeNet},
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fig-replay, ops-bridge, decay-hub or serve-net")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 0, "measuring time a run may repeat its fixed work within (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 re-runs the workload with spans recorded and prints the per-layer metrics")
	spans := fs.String("spans", "", "with -trace 1: write the spans and the per-layer table to this file")
	out := fs.String("out", "", "append this run to the result set in this file")
	pin := fs.Bool("pin", false, "with -seed 1 -trace 1: rewrite expected.json's entry for the workload from this run")
	compare := fs.Bool("compare", false, "compare two result sets: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, specDir, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result-set files")
			return 2
		}
		return compareSets(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	var w *namedWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if w == nil || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintf(stderr, "bench: need -workload (one of %v), -trace 0|1 and -seconds >= 0\n", spec.workloadNames())
		return 2
	}

	env := &runEnv{seed: *seed, seconds: *seconds, size: &fullSize, log: stdout}
	if *trace == 1 {
		env.rec = newRecorder(w.name)
	}
	o, err := w.run(env)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	expectedPath := specDir + "/bench/expected.json"
	if *pin {
		if err := pinExpected(expectedPath, spec, w.name, env, o); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	} else {
		checkExpected(expectedPath, spec, w.name, env, o)
	}
	rec, err := buildRecord(spec, w.name, env, o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printTable(stdout, spec, rec, o)
	if *spans != "" && env.rec != nil {
		if err := env.rec.write(*spans); err != nil {
			fmt.Fprintln(stderr, "bench: writing spans:", err)
			return 1
		}
	}
	if *out != "" {
		if err := appendRun(*out, rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, rec.resultLine(spec))
	if !rec.Correct {
		return 1
	}
	return 0
}

// buildRecord turns an outcome into the run's record: the declared
// end-to-end metrics of an untraced run, or every declared per-layer
// metric of a traced one. A layer the workload never calls did no work, so
// its per-layer metrics read zero (checkExpected holds the set a workload
// does measure to expected.json); an end-to-end metric must be measured.
func buildRecord(spec *benchSpec, name string, env *runEnv, o *outcome) (*runRecord, error) {
	declared := spec.EndToEnd
	if env.rec != nil {
		declared = spec.PerLayer
	}
	rec := &runRecord{
		Workload: name, Seed: env.seed, Seconds: env.seconds, Traced: env.rec != nil,
		Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]float64{}, Counts: o.counts,
	}
	for _, m := range declared {
		v, ok := o.metrics[m.Name]
		if !ok && env.rec == nil {
			return nil, fmt.Errorf("%s measured no value for end-to-end metric %s", name, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is not finite", name, m.Name)
		}
		rec.Metrics[m.Name] = v
	}
	for n := range o.metrics {
		if spec.find(n) == nil {
			return nil, fmt.Errorf("%s emitted %s, which BENCHMARK.json does not declare", name, n)
		}
	}
	if o.attempted < 1 {
		o.failf("no operation was attempted")
	}
	if o.failed != 0 {
		o.failf("failed_frac %d/%d is not zero", o.failed, o.attempted)
	}
	rec.Failures = o.failures
	rec.Correct = len(o.failures) == 0
	return rec, nil
}

// printTable prints every metric of the run by name with its unit and
// direction, then the operation counts and any failed check.
func printTable(w io.Writer, spec *benchSpec, rec *runRecord, o *outcome) {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "metric\tvalue\tunit\tbetter\tbound\n")
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := spec.find(n)
		if _, measured := o.metrics[n]; !measured {
			continue // a layer this workload never calls
		}
		bound := "-"
		if b := spec.boundOf(n); b > 0 {
			bound = fmt.Sprintf("%.2f", b)
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%s\n", n, rec.Metrics[n], m.Unit, m.Better, bound)
	}
	tw.Flush()
	frac := 0.0
	if rec.Attempted > 0 {
		frac = float64(rec.Failed) / float64(rec.Attempted)
	}
	fmt.Fprintf(w, "failed_frac %g (%d failed of %d attempted)\n", frac, rec.Failed, rec.Attempted)
	for _, f := range rec.Failures {
		fmt.Fprintln(w, "CHECK FAILED:", f)
	}
}

// resultLine is the run's last line of output: the driver's JSON object.
func (r *runRecord) resultLine(spec *benchSpec) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.Metrics))
	for n, v := range r.Metrics {
		metrics[n] = value{v, spec.find(n).Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return string(line)
}
