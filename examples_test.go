package ethpart

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestExamplesPrintExpected runs each deterministic example and compares
// its stdout with the expected.txt beside it. examples/custom prints wall
// times, so it is left out here; CI's examples step runs it.
func TestExamplesPrintExpected(t *testing.T) {
	for _, name := range []string{"quickstart", "tokenshard", "shardrun"} {
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command("go", "run", "./examples/"+name)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("go run ./examples/%s: %v\n%s", name, err, stderr.Bytes())
			}
			pinText(t, filepath.Join("examples", name, "expected.txt"), out)
		})
	}
}

// updateGoldens is the one re-pin switch (DESIGN.md §10, "Re-pinning"):
// `UPDATE_GOLDENS=1 go test ./...` rewrites every pinned file whose
// content the code no longer reproduces.
var updateGoldens = os.Getenv("UPDATE_GOLDENS") != ""

// pinText compares got with the file pinned at path, byte for byte. Under
// the switch it rewrites the file instead and fails naming the first line
// that moved: a failure is what plain `go test` prints, and the next plain
// run passes.
func pinText(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil && !(updateGoldens && errors.Is(err, fs.ErrNotExist)) {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	if !updateGoldens {
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
