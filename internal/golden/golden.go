// Package golden is the one re-pin implementation (DESIGN.md §10,
// "Re-pinning"): a test compares what it computes with a file pinned under
// testdata/, and `UPDATE_GOLDENS=1 go test ./...` rewrites every pinned file
// whose content the code no longer reproduces. Only tests import it.
//
// Without the switch a moved cell or line fails the test. Under it the
// file is rewritten and the test fails listing what moved, pinned →
// computed: a failure is what plain `go test` prints, and the next plain
// run passes. A missing file fails, except under the switch, which writes
// it.
package golden

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
	"strconv"
	"strings"
	"testing"
)

// updating reports whether this run re-pins. It is read at each call, so a
// test can set it with t.Setenv.
func updating() bool { return os.Getenv("UPDATE_GOLDENS") != "" }

// Cells is one pinned JSON file of named cells: an object keyed by name
// (Object) or a list in the order the test checked them (List). A test
// checks each cell it computes, then calls Done.
type Cells[T any] struct {
	path   string
	update bool
	same   func(got, want T) bool
	list   bool
	want   map[string]T
	got    map[string]T
	order  []string // the computed names, in check order
	moved  []string
}

// Object reads the JSON object of cells pinned at path; same says whether a
// computed cell still matches its pinned value. The file is written with a
// two-space indent, its keys sorted.
func Object[T any](t testing.TB, path string, same func(got, want T) bool) *Cells[T] {
	t.Helper()
	c := open(path, same, false)
	c.read(t, &c.want)
	return c
}

// List reads the JSON list of cells pinned at path, each named by name; a
// computed cell matches its pinned one when the two are deeply equal. The
// file is written with a one-space indent, in check order.
func List[T any](t testing.TB, path string, name func(T) string) *Cells[T] {
	t.Helper()
	c := open(path, func(got, want T) bool { return reflect.DeepEqual(got, want) }, true)
	var cells []T
	c.read(t, &cells)
	for _, cell := range cells {
		c.want[name(cell)] = cell
	}
	return c
}

func open[T any](path string, same func(got, want T) bool, list bool) *Cells[T] {
	return &Cells[T]{path: path, update: updating(), same: same, list: list, want: map[string]T{}, got: map[string]T{}}
}

// read decodes the pinned file into v.
func (c *Cells[T]) read(t testing.TB, v any) {
	t.Helper()
	buf, err := os.ReadFile(c.path)
	if err == nil {
		err = json.Unmarshal(buf, v)
	}
	if err != nil && !(c.update && errors.Is(err, fs.ErrNotExist)) {
		t.Fatal(err)
	}
}

// Check compares the computed cell key with its pinned value; a List cell's
// key is its name. A moved, unpinned or twice-computed cell fails t, or
// under the switch goes into Done's report.
func (c *Cells[T]) Check(t testing.TB, key string, got T) {
	t.Helper()
	if _, dup := c.got[key]; dup {
		c.report(t, key+": computed twice")
		return
	}
	c.got[key] = got
	c.order = append(c.order, key)
	if want, ok := c.want[key]; !ok {
		c.report(t, key+": - → "+text(got))
	} else if !c.same(got, want) {
		c.report(t, key+": "+fieldMoves(want, got))
	}
}

func (c *Cells[T]) report(t testing.TB, moved string) {
	t.Helper()
	if c.update {
		c.moved = append(c.moved, moved)
	} else {
		t.Errorf("%s moved (pinned → computed; UPDATE_GOLDENS=1 re-pins) %s", c.path, moved)
	}
}

// Done fails on a pinned cell the test did not compute. Under the switch it
// rewrites the file from the computed cells when its bytes differ, and
// fails listing every move.
func (c *Cells[T]) Done(t testing.TB) {
	t.Helper()
	for _, key := range slices.Sorted(maps.Keys(c.want)) {
		if _, ok := c.got[key]; !ok {
			c.report(t, key+": "+text(c.want[key])+" → -")
		}
	}
	if !c.update {
		return
	}
	var v any = c.got
	indent := "  "
	if c.list {
		cells := make([]T, len(c.order))
		for i, key := range c.order {
			cells[i] = c.got[key]
		}
		v, indent = cells, " "
	}
	buf, err := json.MarshalIndent(v, "", indent)
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if old, err := os.ReadFile(c.path); err == nil && bytes.Equal(old, buf) {
		return
	}
	if err := os.WriteFile(c.path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if len(c.moved) == 0 {
		c.moved = []string{"no cell moved; the file's layout did"}
	}
	t.Errorf("re-pinned %s (pinned → computed):\n\t%s", c.path, strings.Join(c.moved, "\n\t"))
}

// Text compares got with the text file pinned at path, byte for byte. Under
// the switch it rewrites the file instead. Either way a difference fails
// naming the first line that moved.
func Text(t testing.TB, path string, got []byte) {
	t.Helper()
	update := updating()
	want, err := os.ReadFile(path)
	if err != nil && !(update && errors.Is(err, fs.ErrNotExist)) {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	if !update {
		t.Errorf("%s moved (pinned → computed; UPDATE_GOLDENS=1 re-pins) %s", path, firstMovedLine(want, got))
		return
	}
	if err := os.WriteFile(path, got, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Errorf("re-pinned %s (pinned → computed) %s", path, firstMovedLine(want, got))
}

// firstMovedLine names the first line at which two texts differ.
func firstMovedLine(want, got []byte) string {
	w, g := strings.SplitAfter(string(want), "\n"), strings.SplitAfter(string(got), "\n")
	i := 0
	for i < len(w) && i < len(g) && w[i] == g[i] {
		i++
	}
	line := func(lines []string) string {
		if i >= len(lines) || lines[i] == "" {
			return "(end of file)"
		}
		return strconv.Quote(strings.TrimSuffix(lines[i], "\n"))
	}
	return fmt.Sprintf("line %d: %s → %s", i+1, line(w), line(g))
}

// fieldMoves lists the computed fields whose JSON differs between two
// cells, pinned → computed, or the whole cells when they are not JSON
// objects or no computed field's text differs.
func fieldMoves(want, got any) string {
	wt, gt := text(want), text(got)
	var w, g map[string]json.RawMessage
	if json.Unmarshal([]byte(wt), &w) == nil && json.Unmarshal([]byte(gt), &g) == nil {
		var moves []string
		for _, f := range slices.Sorted(maps.Keys(g)) {
			if !bytes.Equal(w[f], g[f]) {
				moves = append(moves, fmt.Sprintf("%s %s → %s", f, w[f], g[f]))
			}
		}
		if len(moves) > 0 {
			return strings.Join(moves, "; ")
		}
	}
	return wt + " → " + gt
}

// text is a cell as the file holds it.
func text(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return err.Error()
	}
	return string(b)
}
