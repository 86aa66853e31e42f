package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// smokeSize runs every workload's whole code path in well under a second.
var smokeSize = sizes{
	eraScale: 0.0001, eraBlock: 24 * time.Hour,
	decayDays: 3, decayRate: 100,
	setupRepeats: 1,
	readSegment:  20 * time.Millisecond, readSegments: 2,
	probeRepeats: 1,
}

// openFiles counts the process's open descriptors: sockets included.
func openFiles(t *testing.T) int {
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd to count sockets in")
	}
	return len(entries)
}

// TestSmoke runs all four workloads at smoke size, traced, and holds their
// output to BENCHMARK.json and expected.json: an untraced run prints
// exactly the end-to-end metrics; a traced run measures exactly the
// per-layer metrics expected.json lists for its workload and prints every
// declared one, each measured by at least one workload; every value is
// finite and every name well formed.
func TestSmoke(t *testing.T) {
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := spec.workloadNames(), []string{"fig-replay", "ops-bridge", "decay-hub", "serve-net"}; !slices.Equal(got, want) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the harness has %v", got, want)
	}
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	names := func(ms []metricSpec) []string {
		var out []string
		for _, m := range ms {
			if !wellFormed.MatchString(m.Name) {
				t.Errorf("metric name %q is malformed", m.Name)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %s: direction %q", m.Name, m.Better)
			}
			out = append(out, m.Name)
		}
		slices.Sort(out)
		if len(slices.Compact(slices.Clone(out))) != len(out) {
			t.Errorf("a metric is declared twice in %v", out)
		}
		return out
	}
	endToEnd, perLayer := names(spec.EndToEnd), names(spec.PerLayer)
	for name := range servingBounds {
		if !slices.Contains(perLayer, name) {
			t.Errorf("serving metric %s has a bound but no declaration", name)
		}
	}

	before := openFiles(t)
	measured := map[string][]string{} // per-layer metric → workloads that measured it
	for _, w := range workloads {
		// A traced run also makes the untraced pass and measures the
		// end-to-end metrics, so one run yields both records.
		env := &runEnv{seed: 3, seconds: 0.1, size: &smokeSize, log: io.Discard, rec: newRecorder(w.name)}
		o, err := w.run(env)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkExpected("expected.json", spec, w.name, env, o)
		if len(layerTable(env.rec.Spans)) == 0 {
			t.Errorf("%s: traced run recorded no spans", w.name)
		}
		for name := range o.metrics {
			if !slices.Contains(endToEnd, name) {
				measured[name] = append(measured[name], w.name)
			}
		}
		for _, traced := range []bool{false, true} {
			e, want := *env, perLayer
			if !traced {
				e.rec, want = nil, endToEnd
			}
			rec, err := buildRecord(spec, w.name, &e, o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rec.Correct {
				t.Errorf("%s traced=%v: checks failed: %v", w.name, traced, rec.Failures)
			}

			var line struct {
				Correct   *bool `json:"correct"`
				Attempted int64 `json:"attempted"`
				Failed    int64 `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(rec.resultLine(spec)))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%s: result line: %v", w.name, err)
			}
			if line.Correct == nil || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s traced=%v: result line reads correct=%v attempted=%d failed=%d",
					w.name, traced, line.Correct, line.Attempted, line.Failed)
			}
			var got []string
			for name, v := range line.Metrics {
				got = append(got, name)
				m := spec.find(name)
				if v.Value == nil || math.IsNaN(*v.Value) || math.IsInf(*v.Value, 0) || v.Unit != m.Unit {
					t.Errorf("%s: metric %s reads %v %q", w.name, name, v.Value, v.Unit)
				}
				if !traced && *v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, want a positive measurement", w.name, name, *v.Value)
				}
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s traced=%v prints %d metrics, BENCHMARK.json declares %d:\n%v\n%v", w.name, traced, len(got), len(want), got, want)
			}
		}
	}
	for _, name := range perLayer {
		if len(measured[name]) == 0 {
			t.Errorf("per-layer metric %s is declared but no workload measures it", name)
		}
	}
	if after := openFiles(t); after != before {
		t.Errorf("%d descriptors open after the workloads, %d before: a socket leaked", after, before)
	}
}

// TestCompareRefusesMixedBudgets: rates measured under different -seconds
// rest on different numbers of repeats.
func TestCompareRefusesMixedBudgets(t *testing.T) {
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	run := func(seconds float64) *resultSet {
		return &resultSet{Runs: []*runRecord{{
			Workload: "fig-replay", Seed: 1, Seconds: seconds, Correct: true,
			Metrics: map[string]float64{"records_per_s": 1e5},
		}}}
	}
	if got := printComparison(spec, run(10), run(10), io.Discard); got != 0 {
		t.Errorf("equal budgets: exit code %d, want 0", got)
	}
	if got := printComparison(spec, run(10), run(20), io.Discard); got != 2 {
		t.Errorf("differing budgets: exit code %d, want 2", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for these inputs.
	tests := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10.2, 11.5, 9.9, 10.4, 10.1, 10.3, 12, 10, 10.6, 10.2}, 10.075, 10.25, 10.825},
	}
	for _, tc := range tests {
		q1, q2, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q2-tc.q2) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := &metricSpec{Name: "lookup_rtt_p50_us", Better: "lower"}
	higher := &metricSpec{Name: "records_per_s", Better: "higher"}
	steady := []float64{100, 101, 99, 100, 102}
	shift := func(by float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * by
		}
		return out
	}
	tests := []struct {
		m    *metricSpec
		a, b []float64
		want string
	}{
		{lower, steady, shift(1.03), "same"},
		{lower, steady, shift(1.2), "worse"},
		{lower, steady, shift(0.8), "better"},
		{higher, steady, shift(0.8), "worse"},
		{higher, steady, shift(1.2), "better"},
		// Spread wider than the 10% bound: only a clean separation resolves.
		{lower, []float64{80, 100, 120, 90, 110}, []float64{85, 105, 125, 95, 115}, "unresolved"},
		{lower, []float64{80, 100, 120, 90, 110}, []float64{180, 200, 220, 190, 210}, "worse"},
		{higher, []float64{80, 100, 120, 90, 110}, []float64{180, 200, 220, 190, 210}, "better"},
		// Set-up time is judged on its median alone.
		{&metricSpec{Name: "setup_s", Better: "lower"}, []float64{80, 100, 120, 90, 110}, []float64{85, 105, 125, 95, 115}, "same"},
	}
	for i, tc := range tests {
		if got, _ := verdict(tc.m, 0.10, tc.a, tc.b); got != tc.want {
			t.Errorf("case %d (%s): verdict %q, want %q", i, tc.m.Name, got, tc.want)
		}
	}
}
