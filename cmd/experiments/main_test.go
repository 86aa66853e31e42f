package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestOperationalFigureGoldens regenerates the three operational figures
// (seed 1, -hours 12) and byte-compares the CSVs they write with the ones
// checked in under testdata/, which were captured before the figures moved
// onto the shared runner and column vocabulary.
func TestOperationalFigureGoldens(t *testing.T) {
	for _, fig := range []string{"decaycost", "scalecost", "scenariocost"} {
		t.Run(fig, func(t *testing.T) {
			dir := t.TempDir()
			if err := run([]string{"-hours", "12", "-csv", dir, fig}); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dir, fig+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", fig+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s.csv drifted from testdata/%s.csv:\n got:\n%s\nwant:\n%s", fig, fig, got, want)
			}
		})
	}
}
