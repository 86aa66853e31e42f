package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call (or batch of calls) into a layer, recorded from
// the harness side of the layer's public API.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`   // "<layer>.<operation>"
	Cell   string `json:"cell,omitempty"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Count is the number of layer calls the span stands for when it
	// batches more than one (steady Process calls of one metric window,
	// the lookups of one read segment); zero means a single call.
	Count int64 `json:"count,omitempty"`
	// Aggregated marks a span whose duration is the summed busy time of
	// Count calls scattered inside its parent (a callee the harness can
	// only time through a counter, like opsim's StepNanos): it is laid
	// out from the parent's start, so only its length is meaningful.
	Aggregated bool `json:"aggregated,omitempty"`
}

// recorder holds a traced run's spans in memory until the run ends.
type recorder struct {
	t0       time.Time
	Workload string `json:"workload"`
	Spans    []span `json:"spans"`
}

func newRecorder(workload string) *recorder {
	return &recorder{t0: time.Now(), Workload: workload}
}

// add records a finished span and returns its ID.
func (r *recorder) add(parent int, name, cell string, start, end time.Time, count int64) int {
	id := len(r.Spans)
	r.Spans = append(r.Spans, span{
		ID: id, Parent: parent, Name: name, Cell: cell,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(), Count: count,
	})
	return id
}

// begin opens a span whose end is not known yet; end closes it.
func (r *recorder) begin(parent int, name, cell string) int {
	now := time.Now()
	return r.add(parent, name, cell, now, now, 0)
}

func (r *recorder) end(id int) {
	r.Spans[id].End = time.Since(r.t0).Nanoseconds()
}

// addBusy records aggregated child spans of parent, laid end to end from
// the parent's start in argument order, and returns their IDs.
func (r *recorder) addBusy(parent int, cell string, children ...busy) []int {
	at := r.Spans[parent].Start
	ids := make([]int, len(children))
	for i, c := range children {
		ids[i] = len(r.Spans)
		r.Spans = append(r.Spans, span{
			ID: ids[i], Parent: parent, Name: c.name, Cell: cell,
			Start: at, End: at + c.ns, Count: c.count, Aggregated: true,
		})
		at += c.ns
	}
	return ids
}

// busy is one aggregated callee of a span: summed time over count calls.
type busy struct {
	name  string
	ns    int64
	count int64
}

// layerRow is one line of the per-layer table: every span of one name.
type layerRow struct {
	Name  string `json:"name"`
	Layer string `json:"layer"`
	Spans int    `json:"spans"`
	Calls int64  `json:"calls"`
	// TotalNs sums the spans' durations; SelfNs sums each span's duration
	// minus the part of it its child spans cover.
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

// selfTimes returns each span's self time, indexed like spans: its
// duration minus the length of the union of its children's intervals,
// clipped to the span (overlapping siblings are not subtracted twice).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerTable folds spans into one row per span name, ordered by name.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	rows := make(map[string]*layerRow)
	for i, s := range spans {
		row := rows[s.Name]
		if row == nil {
			layer, _, _ := strings.Cut(s.Name, ".")
			row = &layerRow{Name: s.Name, Layer: layer}
			rows[s.Name] = row
		}
		row.Spans++
		row.Calls += max(s.Count, 1)
		row.TotalNs += s.End - s.Start
		row.SelfNs += self[i]
	}
	out := make([]layerRow, 0, len(rows))
	for _, row := range rows {
		out = append(out, *row)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// write stores the spans and their per-layer table as one JSON document.
func (r *recorder) write(path string) error {
	doc := struct {
		*recorder
		Layers []layerRow `json:"layers"`
	}{r, layerTable(r.Spans)}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
