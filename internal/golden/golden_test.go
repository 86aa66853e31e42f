package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// recorder is a testing.TB that keeps what a helper reports; Fatal ends
// the goroutine it runs on, as testing.T's does.
type recorder struct {
	testing.TB
	errs []string
}

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func (r *recorder) Fatal(args ...any) {
	r.errs = append(r.errs, fmt.Sprint(args...))
	runtime.Goexit()
}

// reported runs fn against a recorder, with the switch on when update is
// set, and returns every report.
func reported(t *testing.T, update bool, fn func(testing.TB)) string {
	t.Helper()
	env := ""
	if update {
		env = "1"
	}
	t.Setenv("UPDATE_GOLDENS", env)
	r := &recorder{TB: t}
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn(r)
	}()
	<-done
	return strings.Join(r.errs, "\n")
}

type cell struct {
	X int `json:"x"`
	Y int `json:"y"`
}

func sameCell(got, want cell) bool { return got == want }

// pinned writes content at a fresh path and returns the path.
func pinned(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cells.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// wantReport fails unless got holds every one of want, or is empty when
// want is.
func wantReport(t *testing.T, got string, want ...string) {
	t.Helper()
	if len(want) == 0 && got != "" {
		t.Errorf("reported %q, want nothing", got)
	}
	for _, w := range want {
		if !strings.Contains(got, w) {
			t.Errorf("report %q lacks %q", got, w)
		}
	}
}

// object checks computed against the object file at path.
func object(path string, computed map[string]cell) func(testing.TB) {
	return func(t testing.TB) {
		g := Object(t, path, sameCell)
		for _, key := range []string{"a", "b", "c"} {
			if c, ok := computed[key]; ok {
				g.Check(t, key, c)
			}
		}
		g.Done(t)
	}
}

func TestObjectReportsEveryMove(t *testing.T) {
	path := pinned(t, "{\n  \"a\": {\n    \"x\": 1,\n    \"y\": 2\n  },\n  \"b\": {\n    \"x\": 3,\n    \"y\": 4\n  }\n}\n")
	wantReport(t, reported(t, false, object(path, map[string]cell{"a": {1, 2}, "b": {3, 4}})))
	moved := map[string]cell{"a": {1, 5}, "c": {6, 7}}
	wantReport(t, reported(t, false, object(path, moved)),
		path+" moved (pinned → computed", "a: y 2 → 5", `b: {"x":3,"y":4} → -`, `c: - → {"x":6,"y":7}`)

	wantReport(t, reported(t, true, object(path, moved)),
		"re-pinned "+path, "a: y 2 → 5", `b: {"x":3,"y":4} → -`, `c: - → {"x":6,"y":7}`)
	if buf, _ := os.ReadFile(path); string(buf) != "{\n  \"a\": {\n    \"x\": 1,\n    \"y\": 5\n  },\n  \"c\": {\n    \"x\": 6,\n    \"y\": 7\n  }\n}\n" {
		t.Errorf("re-pinned file:\n%s", buf)
	}
	wantReport(t, reported(t, false, object(path, moved)))
	wantReport(t, reported(t, true, object(path, moved)))
}

func TestMissingFileFailsUnlessRepinning(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.json")
	computed := map[string]cell{"a": {1, 2}}
	wantReport(t, reported(t, false, object(path, computed)), "no such file")
	wantReport(t, reported(t, true, object(path, computed)), "re-pinned "+path, `a: - → {"x":1,"y":2}`)
	wantReport(t, reported(t, false, object(path, computed)))
}

func TestLayoutOnlyRepin(t *testing.T) {
	path := pinned(t, `{"a":{"x":1,"y":2}}`)
	computed := map[string]cell{"a": {1, 2}}
	wantReport(t, reported(t, false, object(path, computed)))
	wantReport(t, reported(t, true, object(path, computed)), "re-pinned "+path, "no cell moved; the file's layout did")
	wantReport(t, reported(t, true, object(path, computed)))
}

func TestListKeepsCheckOrderAndCount(t *testing.T) {
	type named struct {
		Name string
		N    int
	}
	path := pinned(t, "[\n {\n  \"Name\": \"b\",\n  \"N\": 1\n },\n {\n  \"Name\": \"a\",\n  \"N\": 2\n }\n]\n")
	list := func(cells ...named) func(testing.TB) {
		return func(t testing.TB) {
			g := List(t, path, func(c named) string { return c.Name })
			for _, c := range cells {
				g.Check(t, c.Name, c)
			}
			g.Done(t)
		}
	}
	wantReport(t, reported(t, false, list(named{"b", 1}, named{"a", 2})))
	wantReport(t, reported(t, false, list(named{"b", 1}, named{"a", 3}, named{"a", 3})),
		"a: N 2 → 3", "a: computed twice")
	wantReport(t, reported(t, true, list(named{"b", 1}, named{"a", 3})), "re-pinned "+path, "a: N 2 → 3")
	if buf, _ := os.ReadFile(path); string(buf) != "[\n {\n  \"Name\": \"b\",\n  \"N\": 1\n },\n {\n  \"Name\": \"a\",\n  \"N\": 3\n }\n]\n" {
		t.Errorf("re-pinned file:\n%s", buf)
	}
	wantReport(t, reported(t, false, list(named{"b", 1}, named{"a", 3})))
}

func TestTextNamesFirstMovedLine(t *testing.T) {
	path := pinned(t, "a\nb\n")
	text := func(got string) func(testing.TB) {
		return func(t testing.TB) { Text(t, path, []byte(got)) }
	}
	wantReport(t, reported(t, false, text("a\nb\n")))
	wantReport(t, reported(t, false, text("a\nc\n")), path+" moved", `line 2: "b" → "c"`)
	wantReport(t, reported(t, false, text("a\nb\nc\n")), `line 3: (end of file) → "c"`)
	wantReport(t, reported(t, true, text("a\n")), "re-pinned "+path, `line 2: "b" → (end of file)`)
	wantReport(t, reported(t, false, text("a\n")))
}
