package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ethpart/internal/experiments"
	"ethpart/internal/opsim"
	"ethpart/internal/shardchain"
	"ethpart/internal/sim"
	"ethpart/internal/trace"
	"ethpart/internal/workload"
)

// writeTestTrace generates a small trace CSV on disk.
func writeTestTrace(t *testing.T) string {
	t.Helper()
	eras := []workload.Era{{
		Name:          "mini",
		Start:         time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC),
		End:           time.Date(2017, 1, 8, 0, 0, 0, 0, time.UTC),
		TxPerDayStart: 10_000, TxPerDayEnd: 10_000, Kind: workload.GrowthLinear,
		NewAccountFrac: 0.2, DeploysPerDay: 5,
		Mix: workload.TxMix{Transfer: 0.6, Token: 0.2, Wallet: 0.1, Crowdsale: 0.05, Game: 0.03, Airdrop: 0.02},
	}}
	gt, err := sim.Generate(workload.Config{Seed: 5, Scale: 0.05, Eras: eras, BlockInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := trace.NewCSVWriter(f)
	for _, rec := range gt.Records {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpsValidation(t *testing.T) {
	if err := runOps([]string{"-bogus"}); err == nil {
		t.Error("unknown flag must error")
	}
	if err := runOps([]string{"-k", "0"}); err == nil {
		t.Error("k=0 must error")
	}
}

// captureStdout runs fn with os.Stdout redirected to a file and returns
// what it printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	runErr := fn()
	os.Stdout = saved
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

func TestOpsRunsAllMethodsAndModels(t *testing.T) {
	// A tiny seeded workload through the full method × model matrix, in
	// both output formats, with each format's header row pinned.
	for _, tc := range []struct {
		extra  []string
		header string
	}{
		{nil, "method model dyn-cut cross-txs messages latency(blk) migrations slots failed shrd-win resizes ms/blk"},
		{[]string{"-csv"}, "method,model,window_start,shards,interactions,cross_txs,messages,receipts_settled," +
			"mean_settlement_blocks,migrations,migrated_slots,failed,dynamic_cut,live_graph,sweep_ns,recount_skipped"},
	} {
		args := append([]string{"-seed", "3", "-scale", "0.0001", "-k", "2",
			"-repartition", "168h"}, tc.extra...)
		out, err := captureStdout(t, func() error { return runOps(args) })
		if err != nil {
			t.Errorf("ops %v: %v", tc.extra, err)
			continue
		}
		lines := strings.Split(out, "\n")
		if want := 1 + len(sim.Methods())*len(experiments.Models()); len(lines) < want {
			t.Fatalf("ops %v: %d lines, want at least a header and %d rows:\n%s", tc.extra, len(lines), want-1, out)
		}
		// The table follows the elapsed-time line and a blank one.
		header := lines[0]
		if tc.extra == nil {
			header = lines[2]
		}
		// Column padding follows the data; the names and their order do not.
		if header = strings.Join(strings.Fields(header), " "); header != tc.header {
			t.Errorf("ops %v header:\n got %q\nwant %q", tc.extra, header, tc.header)
		}
	}
}

func TestOpsCSVGuardsEmptySettlement(t *testing.T) {
	// Regression: a window with zero settled receipts used to emit NaN
	// into the CSV; it must emit an empty cell instead.
	rows := []experiments.OpsRow{{
		Result: &opsim.Result{
			Method: sim.MethodHash,
			Model:  shardchain.ModelReceipts,
			K:      2,
			Windows: []opsim.WindowStat{
				{Start: time.Unix(0, 0).UTC(), Interactions: 3}, // nothing settled
				{Start: time.Unix(14400, 0).UTC(), Interactions: 2,
					Stats: shardchain.Stats{ReceiptsSettled: 2, SettlementBlocks: 3}},
			},
		},
	}}
	var buf bytes.Buffer
	if err := opsCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "NaN") {
		t.Errorf("CSV contains NaN:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want header + 2 windows:\n%s", len(lines), out)
	}
	col := -1
	for i, h := range strings.Split(lines[0], ",") {
		if h == "mean_settlement_blocks" {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("no mean_settlement_blocks column in header:\n%s", lines[0])
	}
	if fields := strings.Split(lines[1], ","); fields[col] != "" {
		t.Errorf("empty-settlement cell = %q, want empty", fields[col])
	}
	if fields := strings.Split(lines[2], ","); fields[col] != "1.500" {
		t.Errorf("settlement cell = %q, want 1.500", fields[col])
	}
}

func TestRunValidation(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing -trace must error")
	}
	if err := run([]string{"-trace", "x.csv", "-method", "bogus"}); err == nil {
		t.Error("bad method must error")
	}
}

// TestDegenerateCountsFailAtFlagParse pins the flag-parse-time rejection of
// shard, era and window counts below one, and of scales and durations at or
// below zero. Past the flags each would panic (chaos -k 0 divides by it),
// replay a whole oracle before fault.New objects (chaos -k -1), or silently
// run with a default (a replay at k = 2 or in 4-hour windows, chaos at ten
// eras, ops at the dataset's 0.004 scale). The replay rows would otherwise
// fail on the missing trace file — the flag check comes first.
func TestDegenerateCountsFailAtFlagParse(t *testing.T) {
	const count, positive = "must be >= 1", "must be > 0"
	for _, tc := range []struct {
		name string
		run  func([]string) error
		args []string
		want string
	}{
		{"chaos -k 0", runChaos, []string{"-k", "0"}, count},
		{"chaos -k -1", runChaos, []string{"-k", "-1"}, count},
		{"replay -k 0", run, []string{"-trace", "does-not-exist.csv", "-k", "0"}, count},
		{"replay -k -3", run, []string{"-trace", "does-not-exist.csv", "-k", "-3"}, count},
		{"chaos -eras 0", runChaos, []string{"-eras", "0"}, count},
		{"chaos -windows-per-era 0", runChaos, []string{"-windows-per-era", "0"}, count},
		{"replay -window -1h", run, []string{"-trace", "does-not-exist.csv", "-window", "-1h"}, "-window " + positive},
		{"replay -repartition 0s", run, []string{"-trace", "does-not-exist.csv", "-repartition", "0s"}, "-repartition " + positive},
		{"ops -scale 0", runOps, []string{"-scale", "0"}, "ops: -scale " + positive},
		{"ops -scale -5", runOps, []string{"-scale", "-5"}, "ops: -scale " + positive},
		{"ops -window 0s", runOps, []string{"-window", "0s"}, "ops: -window " + positive},
		{"ops -repartition -1h", runOps, []string{"-repartition", "-1h"}, "ops: -repartition " + positive},
		{"ops -block 0s", runOps, []string{"-block", "0s"}, "ops: -block " + positive},
	} {
		err := tc.run(tc.args)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if msg := err.Error(); !strings.Contains(msg, tc.want) || strings.Contains(msg, "\n") {
			t.Errorf("%s: error %q is not the one-line check %q", tc.name, msg, tc.want)
		}
	}
}

// TestIgnoredFlagsFailAtFlagParse: a flag the run would not use is an error
// before anything is read or generated, not a silently default run.
func TestIgnoredFlagsFailAtFlagParse(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func([]string) error
		args []string
		want string
	}{
		{"replay -trace -seed", run, []string{"-trace", "does-not-exist.csv", "-seed", "99"}, "-seed require -scenario"},
		{"ops -scenario -scale", runOps, []string{"-scenario", "transfer-steady", "-scale", "1000"}, "ops: -scale does not apply"},
		{"chaos -workload -eras", runChaos, []string{"-workload", "transfer-steady", "-eras", "999"}, "chaos: -eras/-windows-per-era do not apply"},
		{"chaos -workload -windows-per-era", runChaos, []string{"-workload", "transfer-steady", "-windows-per-era", "3"}, "chaos: -eras/-windows-per-era do not apply"},
	} {
		if err := tc.run(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestHorizonFlagFailsFast pins the flag-parse-time validation: -horizon
// without -decay-half-life must be rejected by every subcommand before any
// trace is read or workload generated (the simulator would reject it too,
// but only after minutes of setup), with a message that names both flags.
func TestHorizonFlagFailsFast(t *testing.T) {
	cases := []struct {
		name string
		run  func() error
	}{
		// run would otherwise fail on the missing trace file — the decay
		// validation must come first.
		{"replay", func() error {
			return run([]string{"-trace", "does-not-exist.csv", "-horizon", "24h"})
		}},
		{"ops", func() error { return runOps([]string{"-horizon", "24h"}) }},
	}
	for _, tc := range cases {
		err := tc.run()
		if err == nil {
			t.Errorf("%s: -horizon without -decay-half-life accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), "-decay-half-life") {
			t.Errorf("%s: error %q does not name the missing flag", tc.name, err)
		}
	}
	// The valid pairing still parses (and fails later only for unrelated
	// reasons, e.g. the missing trace file).
	err := run([]string{"-trace", "does-not-exist.csv",
		"-decay-half-life", "6h", "-horizon", "24h"})
	if err == nil || strings.Contains(err.Error(), "-decay-half-life") {
		t.Errorf("valid decay pair rejected at flag parse: %v", err)
	}
}

// TestChaosSmoke runs the full seeded scenario library at a tiny scale —
// every scenario must converge byte-identical to the fault-free oracle
// (runChaos returns an error on any invariant violation) — plus the CSV
// output path and flag validation.
func TestChaosSmoke(t *testing.T) {
	if err := runChaos([]string{"-eras", "3", "-windows-per-era", "3", "-seed", "1", "-k", "2"}); err != nil {
		t.Errorf("chaos: %v", err)
	}
	if err := runChaos([]string{"-eras", "3", "-windows-per-era", "3", "-scenario", "crash-wave", "-csv"}); err != nil {
		t.Errorf("chaos -csv: %v", err)
	}
	if err := runChaos([]string{"-scenario", "bogus"}); err == nil {
		t.Error("chaos unknown scenario accepted")
	}
	if err := runChaos([]string{"-method", "bogus"}); err == nil {
		t.Error("chaos bad method accepted")
	}
}

// TestChaosNetSmoke runs the networked chaos path on the two directory-
// fault schedules: commits replicate over loopback TCP to replicas that
// each apply through their own fault plane, and runChaos errors unless
// every replica view converges entry-by-entry to the in-process oracle
// with zero torn epochs.
func TestChaosNetSmoke(t *testing.T) {
	for _, scenario := range []string{"flip-stall", "mixed"} {
		err := runChaos([]string{
			"-replicas", "2",
			"-eras", "3", "-windows-per-era", "3", "-k", "2",
			"-scenario", scenario,
		})
		if err != nil {
			t.Errorf("chaos -replicas 2 %s: %v", scenario, err)
		}
	}
}

func TestReplayEachMethod(t *testing.T) {
	path := writeTestTrace(t)
	for _, method := range []string{"hash", "kl", "metis", "r-metis", "tr-metis"} {
		err := run([]string{
			"-trace", path, "-method", method, "-k", "4",
			"-repartition", "48h",
		})
		if err != nil {
			t.Errorf("%s: %v", method, err)
		}
	}
}
