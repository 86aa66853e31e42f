package ethpart

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"testing"

	"ethpart/internal/golden"
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
			golden.Text(t, filepath.Join("examples", name, "expected.txt"), out)
		})
	}
}
