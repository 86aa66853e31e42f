package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOperationalFigureGoldens regenerates figures at seed 1 and
// byte-compares the CSVs they write with the ones checked in under
// testdata/: the three operational figures (-hours 12), captured before
// they moved onto the shared runner and column vocabulary, and the paper's
// own graph-growth and shard-count-sweep figures (-scale 0.0005), captured
// at commit b1a91af, before the Merkle trie became a root fold and the
// multilevel partitioner's unset options became constants.
func TestOperationalFigureGoldens(t *testing.T) {
	for _, tc := range []struct {
		fig  string
		args []string
	}{
		{"decaycost", []string{"-hours", "12"}},
		{"scalecost", []string{"-hours", "12"}},
		{"scenariocost", []string{"-hours", "12"}},
		{"fig1", []string{"-scale", "0.0005"}},
		{"fig5", []string{"-scale", "0.0005"}},
	} {
		t.Run(tc.fig, func(t *testing.T) {
			dir := t.TempDir()
			if err := run(append(tc.args, "-csv", dir, tc.fig)); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dir, tc.fig+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.fig+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s.csv drifted from testdata/%s.csv:\n got:\n%s\nwant:\n%s", tc.fig, tc.fig, got, want)
			}
		})
	}
}

// TestHorizonFlagFailsFast: -horizon without -decay-half-life is rejected
// at flag-parse time, as in ethpart — fig5 would otherwise generate the
// whole history and fail inside its sweep — with a message naming the
// missing flag; the valid pair parses (and fails only for the subcommand
// this test leaves out).
func TestHorizonFlagFailsFast(t *testing.T) {
	err := run([]string{"-horizon", "24h", "fig5"})
	if err == nil || !strings.Contains(err.Error(), "-decay-half-life") {
		t.Errorf("-horizon alone: error %v does not name the missing flag", err)
	}
	err = run([]string{"-decay-half-life", "6h", "-horizon", "24h"})
	if err == nil || strings.Contains(err.Error(), "-decay-half-life") {
		t.Errorf("valid decay pair rejected at flag parse: %v", err)
	}
}
