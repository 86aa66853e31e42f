package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ethpart/internal/trace"
	"ethpart/internal/workload"
)

// countCSVRecords opens path (gzip-transparently) and counts its records.
func countCSVRecords(t *testing.T, path string) int {
	t.Helper()
	f, err := trace.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := trace.NewCSVReader(f)
	var n int
	for {
		rec, err := r.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("record %d: %v", n, err)
		}
		if rec.From == rec.To && rec.Kind == 0 {
			t.Fatalf("nonsense record: %+v", rec)
		}
		n++
	}
	return n
}

func TestRunRequiresOut(t *testing.T) {
	if err := run(nil, io.Discard); err == nil {
		t.Fatal("missing -out must error")
	}
}

// TestRunRejectsBadFormat: CSV is the one trace format, so -format is not a
// flag at all.
func TestRunRejectsBadFormat(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.bin")
	err := run([]string{"-out", out, "-scale", "0.0002", "-format", "xml"}, io.Discard)
	if err == nil {
		t.Fatal("bad format must error")
	}
}

// TestNonPositiveScaleFailsAtFlagParse: a scale at or below zero is
// rejected before anything is generated or written; the era generator
// would otherwise run at its own 0.02 default, five times this flag's.
func TestNonPositiveScaleFailsAtFlagParse(t *testing.T) {
	for _, scale := range []string{"-5", "0"} {
		out := filepath.Join(t.TempDir(), "t.csv")
		err := run([]string{"-out", out, "-scale", scale}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "-scale must be > 0") {
			t.Errorf("-scale %s: error %v, want the flag check", scale, err)
		}
		if _, statErr := os.Stat(out); !errors.Is(statErr, os.ErrNotExist) {
			t.Errorf("-scale %s: output file written (stat: %v)", scale, statErr)
		}
	}
}

// TestIgnoredFlagsFailAtFlagParse: a flag the run would not use is an error
// before anything is generated or written, not a silent era history.
func TestIgnoredFlagsFailAtFlagParse(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-hours", "12"}, "-hours requires -scenario"},
		{[]string{"-format", "jsonl"}, "flag provided but not defined: -format"},
		{[]string{"-scenario", "transfer-steady", "-hours", "1"}, "-scale does not apply to -scenario"},
		{[]string{"-list"}, "-scale does not apply to -list"},
		{[]string{"-describe", "flash-nft-mint"}, "-scale does not apply to -describe"},
		{[]string{"-validate", "flash-nft-mint"}, "-scale does not apply to -validate"},
	} {
		out := filepath.Join(t.TempDir(), "t.csv")
		err := run(append(tc.args, "-out", out, "-scale", "0.0002"), io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want %q", tc.args, err, tc.want)
		}
		if _, statErr := os.Stat(out); !errors.Is(statErr, os.ErrNotExist) {
			t.Errorf("%v: output file written (stat: %v)", tc.args, statErr)
		}
	}
}

func TestGenerateCSVTrace(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.csv")
	if err := run([]string{"-out", out, "-scale", "0.0002", "-seed", "3"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if n := countCSVRecords(t, out); n < 1000 {
		t.Fatalf("only %d records generated", n)
	}
}

func TestGenerateScenarioGzipTrace(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.csv.gz")
	args := []string{"-out", out, "-scenario", "transfer-steady", "-hours", "24", "-seed", "5"}
	if err := run(args, io.Discard); err != nil {
		t.Fatal(err)
	}
	if n := countCSVRecords(t, out); n < 100 {
		t.Fatalf("only %d records generated", n)
	}
}

func TestRunRejectsUnknownScenario(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.csv")
	if err := run([]string{"-out", out, "-scenario", "nope"}, io.Discard); err == nil {
		t.Fatal("unknown scenario must error")
	}
}

func TestListDescribeValidate(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range workload.ScenarioNames() {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("-list output missing %q", name)
		}
	}
	buf.Reset()
	if err := run([]string{"-describe", "flash-nft-mint"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"flash", "nft-mint", "spike"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("-describe output missing %q in:\n%s", want, buf.String())
		}
	}
	buf.Reset()
	if err := run([]string{"-validate", "crud-diurnal"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ok") {
		t.Errorf("-validate output = %q, want ok", buf.String())
	}
}

// TestProfileFlags generates a tiny trace with -cpuprofile and -memprofile:
// both profiles must be non-empty gzip-compressed pprof output.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	args := []string{"-cpuprofile", cpu, "-memprofile", mem, "-out", filepath.Join(dir, "trace.csv"), "-scale", "0.0002"}
	if err := run(args, io.Discard); err != nil {
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
