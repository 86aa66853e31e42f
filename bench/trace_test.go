package main

import (
	"slices"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	sp := func(id, parent int, start, end int64) span {
		return span{ID: id, Parent: parent, Name: "x", Start: start, End: end}
	}
	tests := []struct {
		name  string
		spans []span
		want  []int64
	}{
		{
			name:  "nested: each level loses only its own children",
			spans: []span{sp(0, -1, 0, 100), sp(1, 0, 10, 60), sp(2, 1, 20, 30)},
			want:  []int64{50, 40, 10},
		},
		{
			name:  "adjacent siblings add up",
			spans: []span{sp(0, -1, 0, 100), sp(1, 0, 0, 40), sp(2, 0, 40, 70)},
			want:  []int64{30, 40, 30},
		},
		{
			name:  "overlapping siblings are subtracted once",
			spans: []span{sp(0, -1, 0, 100), sp(1, 0, 10, 50), sp(2, 0, 30, 80)},
			want:  []int64{30, 40, 50},
		},
		{
			name:  "a sibling inside another adds nothing",
			spans: []span{sp(0, -1, 0, 100), sp(1, 0, 10, 90), sp(2, 0, 20, 30)},
			want:  []int64{20, 80, 10},
		},
		{
			name:  "children are clipped to the parent and may come unsorted",
			spans: []span{sp(0, -1, 10, 50), sp(1, 0, 40, 70), sp(2, 0, 0, 20)},
			want:  []int64{20, 30, 20},
		},
	}
	for _, tc := range tests {
		if got := selfTimes(tc.spans); !slices.Equal(got, tc.want) {
			t.Errorf("%s: self times %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestLayerTable(t *testing.T) {
	r := &recorder{}
	root := len(r.Spans)
	r.Spans = append(r.Spans, span{ID: 0, Parent: -1, Name: "opsim.run", Start: 0, End: 100})
	ids := r.addBusy(root, "cell", busy{"shardchain.step", 40, 7}, busy{"directory.commit", 10, 3})
	r.addBusy(ids[1], "cell", busy{"directory.page_copy", 4, 2})
	want := []layerRow{
		{Name: "directory.commit", Layer: "directory", Spans: 1, Calls: 3, TotalNs: 10, SelfNs: 6},
		{Name: "directory.page_copy", Layer: "directory", Spans: 1, Calls: 2, TotalNs: 4, SelfNs: 4},
		{Name: "opsim.run", Layer: "opsim", Spans: 1, Calls: 1, TotalNs: 100, SelfNs: 50},
		{Name: "shardchain.step", Layer: "shardchain", Spans: 1, Calls: 7, TotalNs: 40, SelfNs: 40},
	}
	if got := layerTable(r.Spans); !slices.Equal(got, want) {
		t.Errorf("layer table\n got %+v\nwant %+v", got, want)
	}
}
