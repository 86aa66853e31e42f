package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"text/tabwriter"
)

// compareSets is -compare: it reads result sets A (before) and B (after),
// prints one row per workload and bounded metric, and reports whether B is
// worse anywhere or disagrees with A on an exact count. Exit code 1 means
// it does.
func compareSets(spec *benchSpec, pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readSet(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readSet(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if a.Env != b.Env {
		fmt.Fprintf(stdout, "note: A was measured on %+v, B on %+v\n", a.Env, b.Env)
	}
	return printComparison(spec, a, b, stdout)
}

// values collects one metric's values over a set's runs of one workload.
// End-to-end metrics come from untraced runs; the serving metrics, which
// BENCHMARK.json has to list per-layer, from traced ones.
func values(set *resultSet, workload, metric string, traced bool) []float64 {
	var vs []float64
	for _, r := range set.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Traced == traced {
			vs = append(vs, v)
		}
	}
	return vs
}

// verdict compares B's values of a metric with A's against its bound.
// worsening is B's median against A's, as a share of A's, signed so that
// positive is worse. A spread wider than the bound leaves the row
// unresolved, unless every run of one side beats every run of the other.
func verdict(m *metricSpec, bound float64, a, b []float64) (string, float64) {
	// As costs, lower is better for every metric.
	cost := func(vs []float64) []float64 {
		if m.Better != "higher" {
			return vs
		}
		neg := make([]float64, len(vs))
		for i, v := range vs {
			neg[i] = -v
		}
		return neg
	}
	ca, cb := cost(a), cost(b)
	_, medA, _ := quartiles(ca)
	_, medB, _ := quartiles(cb)
	worsening := (medB - medA) / math.Abs(medA)
	// setup_s is bounded on its median alone, as the driver does.
	if m.Name != "setup_s" && max(spread(a), spread(b)) > bound {
		switch {
		case slices.Max(cb) < slices.Min(ca):
			return "better", worsening
		case slices.Min(cb) > slices.Max(ca) && worsening > bound:
			return "worse", worsening
		}
		return "unresolved", worsening
	}
	switch {
	case worsening > bound:
		return "worse", worsening
	case worsening < -bound:
		return "better", worsening
	}
	return "same", worsening
}

func printComparison(spec *benchSpec, a, b *resultSet, w io.Writer) int {
	bad := 0
	// Rates measured under different -seconds budgets rest on different
	// numbers of repeats: such sets are not compared at all.
	budgets := map[string]float64{}
	for _, set := range []*resultSet{a, b} {
		for _, r := range set.Runs {
			if s, seen := budgets[r.Workload]; seen && s != r.Seconds {
				fmt.Fprintf(w, "%s was run with -seconds %g and with -seconds %g: not comparable\n", r.Workload, s, r.Seconds)
				return 2
			}
			budgets[r.Workload] = r.Seconds
		}
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median (q1 q3)\tB median (q1 q3)\tchange\tbound\tverdict")
	for _, wl := range spec.workloadNames() {
		row := func(m *metricSpec, traced bool) {
			va, vb := values(a, wl, m.Name, traced), values(b, wl, m.Name, traced)
			// Nothing to compare: no runs on one side, or a layer this
			// workload never calls (its metrics read 0 everywhere).
			if len(va) == 0 || len(vb) == 0 || slices.Max(va) == 0 && slices.Max(vb) == 0 {
				return
			}
			bound := spec.boundOf(m.Name)
			v, worsening := verdict(m, bound, va, vb)
			if v == "worse" {
				bad++
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			fmt.Fprintf(tw, "%s\t%s\t%.5g (%.5g %.5g)\t%.5g (%.5g %.5g)\t%+.1f%%\t%.0f%%\t%s\n",
				wl, m.Name, a2, a1, a3, b2, b1, b3, 100*worsening, 100*bound, v)
		}
		for i := range spec.EndToEnd {
			row(&spec.EndToEnd[i], false)
		}
		for i := range spec.PerLayer {
			if _, ok := servingBounds[spec.PerLayer[i].Name]; ok {
				row(&spec.PerLayer[i], true)
			}
		}
	}
	tw.Flush()
	fmt.Fprintln(w, "change is B's median against A's, positive = worse")

	// Exact counts: every pair of runs of one workload and seed must agree.
	for _, ra := range a.Runs {
		for _, rb := range b.Runs {
			if ra.Workload != rb.Workload || ra.Seed != rb.Seed {
				continue
			}
			for _, d := range diffCounts(ra.Counts, rb.Counts) {
				bad++
				fmt.Fprintf(w, "COUNT DIFFERS: %s seed %d: B has %s\n", ra.Workload, ra.Seed, d)
			}
		}
	}
	for _, set := range []*resultSet{a, b} {
		for _, r := range set.Runs {
			if !r.Correct {
				bad++
				fmt.Fprintf(w, "FAILED RUN: %s seed %d: %v\n", r.Workload, r.Seed, r.Failures)
			}
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
