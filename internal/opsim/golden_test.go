package opsim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// updateGoldens is the one re-pin switch (DESIGN.md §10, "Re-pinning"):
// `UPDATE_GOLDENS=1 go test ./...` rewrites every pinned file whose
// content the code no longer reproduces.
var updateGoldens = os.Getenv("UPDATE_GOLDENS") != ""

// golden is one pinned JSON list of cells, each named by name, in the
// order a test checks them. A test checks each cell it computes, then
// calls done.
type golden[T any] struct {
	path  string
	name  func(T) string
	want  map[string]T
	got   []T
	moved []string
}

// openGolden reads the cells pinned at path. A missing file fails the
// test, except under the switch, which writes it.
func openGolden[T any](t *testing.T, path string, name func(T) string) *golden[T] {
	t.Helper()
	var cells []T
	buf, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(buf, &cells)
	}
	if err != nil && !(updateGoldens && errors.Is(err, fs.ErrNotExist)) {
		t.Fatal(err)
	}
	g := &golden[T]{path: path, name: name, want: map[string]T{}}
	for _, c := range cells {
		g.want[name(c)] = c
	}
	return g
}

// check compares one computed cell with the pinned cell of its name. A
// moved cell fails t, or under the switch goes into done's report.
func (g *golden[T]) check(t *testing.T, got T) {
	t.Helper()
	g.got = append(g.got, got)
	key := g.name(got)
	want, ok := g.want[key]
	if ok && reflect.DeepEqual(got, want) {
		return
	}
	moved := key + ": - → " + jsonText(got)
	if ok {
		moved = key + ": " + fieldMoves(want, got)
	}
	g.report(t, moved)
}

func (g *golden[T]) report(t *testing.T, moved string) {
	t.Helper()
	if updateGoldens {
		g.moved = append(g.moved, moved)
	} else {
		t.Errorf("%s moved (pinned → computed; UPDATE_GOLDENS=1 re-pins) %s", g.path, moved)
	}
}

// done fails when the cell counts differ or a pinned cell was not
// computed. Under the switch it rewrites the file from the computed cells
// when its bytes differ, and fails listing every move: a failure is what
// plain `go test` prints, and the next plain run passes.
func (g *golden[T]) done(t *testing.T) {
	t.Helper()
	if len(g.got) != len(g.want) {
		g.report(t, fmt.Sprintf("%d cells, %s pins %d", len(g.got), g.path, len(g.want)))
	}
	computed := map[string]bool{}
	for _, c := range g.got {
		computed[g.name(c)] = true
	}
	for _, key := range slices.Sorted(maps.Keys(g.want)) {
		if !computed[key] {
			g.report(t, key+": "+jsonText(g.want[key])+" → -")
		}
	}
	if !updateGoldens {
		return
	}
	buf, err := json.MarshalIndent(g.got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if old, err := os.ReadFile(g.path); err == nil && bytes.Equal(old, buf) {
		return
	}
	if err := os.WriteFile(g.path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if len(g.moved) == 0 {
		g.moved = []string{"no cell moved; the file's layout did"}
	}
	t.Errorf("re-pinned %s (pinned → computed):\n\t%s", g.path, strings.Join(g.moved, "\n\t"))
}

// fieldMoves lists the fields whose JSON differs between two cells,
// pinned → computed.
func fieldMoves(want, got any) string {
	var w, g map[string]json.RawMessage
	if json.Unmarshal([]byte(jsonText(want)), &w) != nil || json.Unmarshal([]byte(jsonText(got)), &g) != nil {
		return jsonText(want) + " → " + jsonText(got)
	}
	var moves []string
	for _, f := range slices.Sorted(maps.Keys(g)) {
		if !bytes.Equal(w[f], g[f]) {
			moves = append(moves, fmt.Sprintf("%s %s → %s", f, w[f], g[f]))
		}
	}
	return strings.Join(moves, "; ")
}

func jsonText(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return err.Error()
	}
	return string(b)
}
