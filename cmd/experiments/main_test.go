package main

import (
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ethpart/internal/golden"
)

// TestOperationalFigureGoldens regenerates figures at seed 1 and
// byte-compares the CSVs they write with the ones checked in under
// testdata/: the three operational figures (scenariocost at -hours 12; the
// other two never read the flag), captured before they moved onto the
// shared runner and column vocabulary, and the paper's
// own graph-growth and shard-count-sweep figures (-scale 0.0005), captured
// at commit b1a91af, before the Merkle trie became a root fold and the
// multilevel partitioner's unset options became constants. costs.csv
// (-scale 0.0005, where every method's waves still fire) was captured when
// the figure began pricing the live chain's measurements instead of the
// simulator's. UPDATE_GOLDENS=1 re-pins them (DESIGN.md §10, "Re-pinning").
// costs' ten co-simulations take ≈ 28 s under -race on 2 vCPUs.
func TestOperationalFigureGoldens(t *testing.T) {
	for _, tc := range []struct {
		fig  string
		args []string
	}{
		{"decaycost", nil},
		{"scalecost", nil},
		{"scenariocost", []string{"-hours", "12"}},
		{"fig1", []string{"-scale", "0.0005"}},
		{"fig5", []string{"-scale", "0.0005"}},
		{"costs", []string{"-scale", "0.0005"}},
	} {
		t.Run(tc.fig, func(t *testing.T) {
			dir := t.TempDir()
			if err := run(append(tc.args, "-csv", dir, tc.fig), io.Discard); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dir, tc.fig+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			golden.Text(t, filepath.Join("testdata", tc.fig+".csv"), got)
		})
	}
}

// TestDegenerateCountsFailAtFlagParse pins the flag-parse-time rejection of
// shard counts below one, of an inverted -k-min/-k-max range, of a scale
// at or below zero, of a negative decay half-life or horizon and of history
// flags the subcommand would ignore (-scale among them, beside -scenario or
// a subcommand that generates its own histories), with a one-line error.
// Past the flags each would run silently at a default (the simulator's
// k = 2, scalecost's k-min 2, the dataset's 0.004 scale under a header that
// prints the flag's, full history or a horizon of 4× the half-life, the era
// history in place of the scenario asked for, the scenario at its own size
// under a -scale that reads as applied) or, for shardaware, generate a
// history with zero communities. Every row names a subcommand that would
// otherwise generate a history first.
func TestDegenerateCountsFailAtFlagParse(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-k", "0", "costs"}, "-k must be >= 1"},
		{[]string{"-k", "-1", "decaycost"}, "-k must be >= 1"},
		{[]string{"-k", "0", "scenariocost"}, "-k must be >= 1"},
		{[]string{"-k", "0", "shardaware"}, "-k must be >= 1"},
		{[]string{"-k", "0", "fig5"}, "-k must be >= 1"},
		{[]string{"-k-min", "0", "scalecost"}, "-k-min must be >= 1"},
		{[]string{"-k-min", "4", "-k-max", "3", "scalecost"}, "-k-max 3 is below -k-min 4"},
		{[]string{"-scale", "-1", "fig1"}, "-scale must be > 0"},
		{[]string{"-scale", "0", "costs"}, "-scale must be > 0"},
		{[]string{"-decay-half-life", "-5h", "decaycost"}, "-decay-half-life must be >= 0"},
		{[]string{"-decay-half-life", "6h", "-horizon", "-1h", "fig5"}, "-horizon must be >= 0"},
		{[]string{"-arrival", "poisson", "fig1"}, "-arrival requires -scenario"},
		{[]string{"-scenario", "transfer-steady", "shardaware"}, "do not apply to shardaware"},
		{[]string{"-scenario", "flash-nft-mint", "-arrival", "poisson", "decaycost"}, "do not apply to decaycost"},
		{[]string{"-scenario", "transfer-steady", "scalecost"}, "do not apply to scalecost"},
		{[]string{"-scenario", "transfer-steady", "-hours", "12", "scenariocost"}, "do not apply to scenariocost"},
		{[]string{"-hours", "12", "decaycost"}, "-hours applies to scenariocost only"},
		{[]string{"-scenario", "transfer-steady", "-scale", "0.9", "fig1"}, "-scale does not apply to -scenario"},
		{[]string{"-scale", "0.5", "-hours", "1", "scenariocost"}, "-scale does not apply to scenariocost"},
		{[]string{"-scale", "0.5", "decaycost"}, "-scale does not apply to decaycost"},
		{[]string{"-scale", "0.5", "scalecost"}, "-scale does not apply to scalecost"},
	} {
		err := run(tc.args, io.Discard)
		if err == nil {
			t.Errorf("%v: accepted", tc.args)
		} else if msg := err.Error(); !strings.Contains(msg, tc.want) || strings.Contains(msg, "\n") {
			t.Errorf("%v: error %q is not the one-line check %q", tc.args, msg, tc.want)
		}
	}
}

// TestHorizonFlagFailsFast: -horizon without -decay-half-life is rejected
// at flag-parse time, as in ethpart — fig5 would otherwise generate the
// whole history and fail inside its sweep — with a message naming the
// missing flag; the valid pair parses (and fails only for the subcommand
// this test leaves out).
func TestHorizonFlagFailsFast(t *testing.T) {
	err := run([]string{"-horizon", "24h", "fig5"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-decay-half-life") {
		t.Errorf("-horizon alone: error %v does not name the missing flag", err)
	}
	err = run([]string{"-decay-half-life", "6h", "-horizon", "24h"}, io.Discard)
	if err == nil || strings.Contains(err.Error(), "-decay-half-life") {
		t.Errorf("valid decay pair rejected at flag parse: %v", err)
	}
}

// TestProfileFlags runs a tiny figure with -cpuprofile and -memprofile:
// both profiles must be non-empty gzip-compressed pprof output.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	if err := run([]string{"-cpuprofile", cpu, "-memprofile", mem, "-scale", "0.0001", "fig2"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		zr, err := gzip.NewReader(f)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		if n, err := io.Copy(io.Discard, zr); err != nil || n == 0 {
			t.Fatalf("%s: %d bytes of profile, %v", filepath.Base(path), n, err)
		}
	}
}
