package main

import (
	"bytes"
	"cmp"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
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
				{Interactions: 3}, // nothing settled
				{Interactions: 2, Stats: shardchain.Stats{ReceiptsSettled: 2, SettlementBlocks: 3}},
			},
			// One simulator window and sweep observation per window, as
			// Run records them.
			Sim: &sim.Result{Windows: []sim.WindowStat{
				{Start: time.Unix(0, 0).UTC()},
				{Start: time.Unix(14400, 0).UTC()},
			}},
			Sweeps: []sim.SweepObs{{RecountSkipped: true}, {RecountSkipped: true}},
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

// TestOpsCSVDecaySweepColumns: a decay run's per-window CSV carries each
// window's own sweep observation — live graph, sweep time and whether the
// recount was skipped — on every row, and some window's sweep did work.
func TestOpsCSVDecaySweepColumns(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return runOps([]string{"-seed", "3", "-scale", "0.0001", "-k", "2",
			"-repartition", "168h", "-decay-half-life", "24h", "-csv"})
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	col := map[string]int{}
	for i, h := range strings.Split(lines[0], ",") {
		col[h] = i
	}
	swept := false
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		live, errLive := strconv.Atoi(f[col["live_graph"]])
		ns, errNs := strconv.ParseInt(f[col["sweep_ns"]], 10, 64)
		skipped, errSkip := strconv.ParseBool(f[col["recount_skipped"]])
		if err := cmp.Or(errLive, errNs, errSkip); err != nil {
			t.Fatalf("sweep columns not filled: %v\n%s", err, line)
		}
		if live > 0 && ns > 0 && !skipped {
			swept = true
		}
	}
	if !swept {
		t.Errorf("no window reports a sweep that recounted over a live graph:\n%s", out)
	}
}

// TestOpsCSVJoinsSimulatorWindowsByIndex: every row's window_start and
// dynamic_cut are the simulator's window at the same index of the same run,
// for every method and model, with and without decay. The run keeps no
// copy of either: the CSV reads Result.Sim.Windows[i] beside the chain's
// Result.Windows[i].
func TestOpsCSVJoinsSimulatorWindowsByIndex(t *testing.T) {
	for _, halfLife := range []time.Duration{0, 168 * time.Hour} {
		ds, err := experiments.NewDataset(experiments.Params{
			Seed: 1, Scale: 0.0001, BlockInterval: 2 * time.Hour, Window: 4 * time.Hour,
			RepartitionEvery: 14 * 24 * time.Hour, DecayHalfLife: halfLife,
		})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := ds.Operational(2)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := opsCSV(&buf, rows); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		col := map[string]int{}
		for i, h := range strings.Split(lines[0], ",") {
			col[h] = i
		}
		lines = lines[1:]
		cuts := map[string]bool{}
		for _, row := range rows {
			res := row.Result
			if len(res.Windows) != len(res.Sim.Windows) || len(res.Windows) == 0 {
				t.Fatalf("half-life %v, %v/%v: %d chain windows, %d simulator windows",
					halfLife, res.Method, res.Model, len(res.Windows), len(res.Sim.Windows))
			}
			for i, sw := range res.Sim.Windows {
				if len(lines) == 0 {
					t.Fatalf("half-life %v: the CSV ran out of rows at %v/%v window %d", halfLife, res.Method, res.Model, i)
				}
				f := strings.Split(lines[0], ",")
				lines = lines[1:]
				want := map[string]string{
					"method":       res.Method.String(),
					"model":        res.Model.String(),
					"window_start": sw.Start.UTC().Format(time.RFC3339),
					"dynamic_cut":  fmt.Sprintf("%.6f", sw.DynamicCut),
				}
				for name, w := range want {
					if got := f[col[name]]; got != w {
						t.Errorf("half-life %v, %v/%v window %d: %s %q, simulator %q",
							halfLife, res.Method, res.Model, i, name, got, w)
					}
				}
				cuts[want["dynamic_cut"]] = true
			}
		}
		if len(lines) != 0 {
			t.Errorf("half-life %v: %d CSV rows past the simulator's windows", halfLife, len(lines))
		}
		if len(cuts) < 2 {
			t.Errorf("half-life %v: every window reads the same dynamic cut; the join is untested", halfLife)
		}
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
// shard, era and window counts below one, of scales and durations at or
// below zero, and of negatives of the flags whose zero means a default or
// off. Past the flags each would panic (chaos -k 0 divides by it), replay a
// whole oracle before fault.New objects (chaos -k -1), or silently run with
// a default (a replay at k = 2, in 4-hour windows, over full history for a
// negative half-life or at the default TR-METIS thresholds, chaos at ten
// eras, ops at the dataset's 0.004 scale or the autoscaler's default
// bounds and target). The replay rows would otherwise fail on the missing
// trace file — the flag check comes first.
func TestDegenerateCountsFailAtFlagParse(t *testing.T) {
	const count, positive, nonNegative = "must be >= 1", "must be > 0", "must be >= 0"
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
		{"replay -decay-half-life -1h", run, []string{"-trace", "does-not-exist.csv", "-decay-half-life", "-1h"}, "-decay-half-life " + nonNegative},
		{"ops -horizon -1h", runOps, []string{"-decay-half-life", "1h", "-horizon", "-1h"}, "-horizon " + nonNegative},
		{"replay -cut-threshold -0.5", run, []string{"-trace", "does-not-exist.csv", "-cut-threshold", "-0.5"}, "-cut-threshold " + nonNegative},
		{"replay -balance-threshold -1", run, []string{"-trace", "does-not-exist.csv", "-balance-threshold", "-1"}, "-balance-threshold " + nonNegative},
		{"ops -k-min -3", runOps, []string{"-autoscale", "-k", "2", "-k-min", "-3"}, "ops: -k-min " + nonNegative},
		{"ops -k-max -1", runOps, []string{"-autoscale", "-k", "2", "-k-max", "-1"}, "ops: -k-max " + nonNegative},
		{"ops -target-load -5", runOps, []string{"-autoscale", "-target-load", "-5"}, "ops: -target-load " + nonNegative},
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

// TestProfileFlags runs a tiny replay, ops matrix and chaos scenario with
// -cpuprofile and -memprofile: each must write both profiles as non-empty
// gzip-compressed pprof output.
func TestProfileFlags(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func([]string) error
		args []string
	}{
		{"replay", run, []string{"-scenario", "transfer-steady", "-hours", "2", "-k", "2"}},
		{"ops", runOps, []string{"-seed", "3", "-scale", "0.0001", "-k", "2"}},
		{"chaos", runChaos, []string{"-eras", "1", "-windows-per-era", "2", "-scenario", "crash-wave", "-k", "2"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
			if _, err := captureStdout(t, func() error {
				return c.run(append([]string{"-cpuprofile", cpu, "-memprofile", mem}, c.args...))
			}); err != nil {
				t.Fatal(err)
			}
			checkProfile(t, cpu)
			checkProfile(t, mem)
		})
	}
}

// checkProfile fails t unless path holds a gzip stream with a non-empty
// payload, the form runtime/pprof writes.
func checkProfile(t *testing.T, path string) {
	t.Helper()
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
