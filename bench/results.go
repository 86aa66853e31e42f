package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// runRecord is one run as result sets and baselines store it.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Counts    map[string]float64 `json:"counts"`
	Failures  []string           `json:"failures,omitempty"`
}

// machine identifies where a result set was measured; numbers from
// different machines are not comparable.
type machine struct {
	NProc int    `json:"nproc"`
	CPU   string `json:"cpu"`
	Go    string `json:"go_version"`
}

// resultSet is a file of runs from one machine.
type resultSet struct {
	Env  machine      `json:"env"`
	Runs []*runRecord `json:"runs"`
}

func thisMachine() machine {
	m := machine{NProc: runtime.NumCPU(), CPU: "unknown", Go: runtime.Version()}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return m
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if key, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(key) == "model name" {
			m.CPU = strings.TrimSpace(val)
			break
		}
	}
	return m
}

func readSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	set := new(resultSet)
	if err := json.Unmarshal(data, set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// appendRun adds rec to the result set at path, creating it if absent.
func appendRun(path string, rec *runRecord) error {
	set, err := readSet(path)
	switch {
	case os.IsNotExist(err):
		set = &resultSet{Env: thisMachine()}
	case err != nil:
		return err
	case set.Env != thisMachine():
		return fmt.Errorf("%s was measured on %+v, this is %+v: start a new result set", path, set.Env, thisMachine())
	}
	set.Runs = append(set.Runs, rec)
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// expectation is one workload's entry of expected.json: the exact counts
// of its seed-1 run, and the per-layer metric names a traced run of it
// measures on any seed.
type expectation struct {
	Counts   map[string]float64 `json:"counts"`
	PerLayer []string           `json:"per_layer"`
}

func readExpected(path string) (map[string]*expectation, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	pinned := map[string]*expectation{}
	if err := json.Unmarshal(data, &pinned); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return pinned, nil
}

// layerNames lists the per-layer metrics a run measured itself, sorted.
func layerNames(spec *benchSpec, o *outcome) []string {
	var names []string
	for _, m := range spec.PerLayer {
		if _, ok := o.metrics[m.Name]; ok {
			names = append(names, m.Name)
		}
	}
	sort.Strings(names)
	return names
}

// checkExpected fails the run on any drift from expected.json: of the exact
// counts on seed 1, and on a traced run of the set of per-layer metrics the
// workload measures — a metric it silently stopped measuring would
// otherwise read 0, the best value a "lower is better" one can have.
func checkExpected(path string, spec *benchSpec, workload string, env *runEnv, o *outcome) {
	pinned, err := readExpected(path)
	if err != nil {
		o.failf("reading expected.json: %v", err)
		return
	}
	want, ok := pinned[workload]
	if !ok {
		o.failf("expected.json pins nothing for %s", workload)
		return
	}
	if env.seed == 1 {
		for _, d := range diffCounts(want.Counts, o.counts) {
			o.failf("drift from expected.json: %s", d)
		}
	}
	if got := layerNames(spec, o); env.rec != nil && !slices.Equal(got, want.PerLayer) {
		o.failf("per-layer metrics measured differ from expected.json: got %v, want %v", got, want.PerLayer)
	}
}

// diffCounts describes every key on which two count maps disagree.
func diffCounts(want, got map[string]float64) []string {
	var diffs []string
	for k, w := range want {
		if g, ok := got[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s missing (want %v)", k, w))
		} else if g != w {
			diffs = append(diffs, fmt.Sprintf("%s = %v, want %v", k, g, w))
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s = %v is not pinned", k, g))
		}
	}
	sort.Strings(diffs)
	return diffs
}

// pinExpected rewrites a workload's entry from a traced seed-1 run.
func pinExpected(path string, spec *benchSpec, workload string, env *runEnv, o *outcome) error {
	if env.seed != 1 || env.rec == nil {
		return fmt.Errorf("-pin records the traced seed-1 run: give -seed 1 -trace 1")
	}
	pinned, err := readExpected(path)
	if os.IsNotExist(err) {
		pinned, err = map[string]*expectation{}, nil
	}
	if err != nil {
		return err
	}
	pinned[workload] = &expectation{Counts: o.counts, PerLayer: layerNames(spec, o)}
	data, err := json.MarshalIndent(pinned, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
