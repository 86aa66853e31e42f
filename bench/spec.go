package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricSpec is one metric declaration of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the single declaration of every metric's
// name, unit, direction and regression bound. The harness reads it at run
// time so the file and the program cannot drift apart.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// servingBounds are the regression bounds -compare applies to serve-net's
// three user-visible serving metrics. BENCHMARK.json lists them under
// per_layer, which carries no bounds, because the driver requires every
// end_to_end metric from every workload and only serve-net has a serving
// tier to measure; they are end-to-end metrics of that workload all the
// same, taken from its untraced pass.
var servingBounds = map[string]float64{
	"repl_commits_per_s":   0.25,
	"lookup_batches_per_s": 0.25,
	"lookup_rtt_p50_us":    0.25,
}

// loadSpec reads BENCHMARK.json from the working directory (go run from
// the repository root) or its parent (go test inside bench/), returning
// the directory it was found in.
func loadSpec() (*benchSpec, string, error) {
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(dir + "/BENCHMARK.json")
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, "", err
		}
		spec := new(benchSpec)
		if err := json.Unmarshal(data, spec); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return spec, dir, nil
	}
	return nil, "", fmt.Errorf("BENCHMARK.json not found; run from the repository root")
}

// find returns the declaration of a metric name, or nil.
func (s *benchSpec) find(name string) *metricSpec {
	for _, list := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for i := range list {
			if list[i].Name == name {
				return &list[i]
			}
		}
	}
	return nil
}

// boundOf returns the regression bound of a metric, zero when it has none.
func (s *benchSpec) boundOf(name string) float64 {
	if b, ok := servingBounds[name]; ok {
		return b
	}
	if m := s.find(name); m != nil {
		return m.Bound
	}
	return 0
}

func (s *benchSpec) workloadNames() []string {
	names := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		names[i] = w.Name
	}
	return names
}
