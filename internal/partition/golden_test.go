package partition

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
)

// updateGoldens is the one re-pin switch (DESIGN.md §10, "Re-pinning"):
// `UPDATE_GOLDENS=1 go test ./...` rewrites every pinned file whose
// content the code no longer reproduces.
var updateGoldens = os.Getenv("UPDATE_GOLDENS") != ""

// golden is one pinned JSON object of named cells. A test checks each cell
// it computes, then calls done.
type golden[T any] struct {
	path      string
	same      func(got, want T) bool
	want, got map[string]T
	moved     []string
}

// openGolden reads the cells pinned at path. A missing file fails the
// test, except under the switch, which writes it.
func openGolden[T any](t *testing.T, path string, same func(got, want T) bool) *golden[T] {
	t.Helper()
	g := &golden[T]{path: path, same: same, want: map[string]T{}, got: map[string]T{}}
	buf, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(buf, &g.want)
	}
	if err != nil && !(updateGoldens && errors.Is(err, fs.ErrNotExist)) {
		t.Fatal(err)
	}
	return g
}

// check compares one computed cell with its pinned value. A moved cell
// fails t, or under the switch goes into done's report.
func (g *golden[T]) check(t *testing.T, key string, got T) {
	t.Helper()
	g.got[key] = got
	if want, ok := g.want[key]; ok && g.same(got, want) {
		return
	}
	g.report(t, key)
}

// report records that key moved: "key: pinned → computed", "-" for a side
// that lacks it.
func (g *golden[T]) report(t *testing.T, key string) {
	t.Helper()
	moved := fmt.Sprintf("%s: %s → %s", key, cellText(g.want, key), cellText(g.got, key))
	if updateGoldens {
		g.moved = append(g.moved, moved)
	} else {
		t.Errorf("%s moved (pinned → computed; UPDATE_GOLDENS=1 re-pins) %s", g.path, moved)
	}
}

// done fails on a pinned cell the test did not compute. Under the switch it
// rewrites the file from the computed cells when its bytes differ, and
// fails listing every move: a failure is what plain `go test` prints, and
// the next plain run passes.
func (g *golden[T]) done(t *testing.T) {
	t.Helper()
	for _, key := range slices.Sorted(maps.Keys(g.want)) {
		if _, ok := g.got[key]; !ok {
			g.report(t, key)
		}
	}
	if !updateGoldens {
		return
	}
	buf, err := json.MarshalIndent(g.got, "", "  ")
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
	slices.Sort(g.moved)
	t.Errorf("re-pinned %s (pinned → computed):\n\t%s", g.path, strings.Join(g.moved, "\n\t"))
}

// cellText is a cell as the file holds it, or "-" when cells lacks key.
func cellText[T any](cells map[string]T, key string) string {
	v, ok := cells[key]
	if !ok {
		return "-"
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err.Error()
	}
	return string(b)
}
