package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"time"

	"ethpart/internal/directory"
	"ethpart/internal/dirserve"
	"ethpart/internal/experiments"
	"ethpart/internal/fault"
	"ethpart/internal/graph"
	"ethpart/internal/opsim"
	"ethpart/internal/report"
	"ethpart/internal/shardchain"
	"ethpart/internal/sim"
	"ethpart/internal/workload"
)

// runChaos executes the chaos subcommand: the seeded fault-scenario
// library over a drifting-era trace. Every scenario replays the same
// trace through the operational co-simulation with a fault schedule armed
// — shard crash-stops recovered from the durable log, receipt storms of
// drops/delays/duplicates, stalled epoch flips with transient commit
// failures — and cross-checks the outcome against a fault-free oracle
// run: totals, per-shard state roots, the home map and every transaction
// receipt must converge byte-identical, and no torn directory commit may
// ever be observed. With -replicas N every scenario's directory commits
// also replicate over loopback TCP to N replica processes, each applying
// through its own fault plane, whose final views must match the oracle's
// entry-by-entry. It exits non-zero on any invariant violation.
func runChaos(args []string) error {
	fs := flag.NewFlagSet("ethpart chaos", flag.ContinueOnError)
	scenarioFlag := fs.String("scenario", "all", "fault scenario: crash-wave|receipt-loss|dup-storm|flip-stall|mixed|all")
	workloadFlag := fs.String("workload", "", "inject faults into a named library workload scenario instead of the drifting-era trace")
	arrival := fs.String("arrival", "", "override the workload scenario's arrival process: poisson|diurnal|flash")
	hours := fs.Float64("hours", 0, "override the workload scenario's arrival duration (hours)")
	seed := fs.Int64("seed", 1, "trace and fault-schedule seed")
	k := fs.Int("k", 4, "number of shards")
	methodFlag := fs.String("method", "tr-metis", "repartitioning method (waves feed the flip-stall scenarios)")
	eras := fs.Int("eras", 6, "drifting eras in the trace")
	windows := fs.Int("windows-per-era", 6, "4-hour windows per era")
	replicas := fs.Int("replicas", 0, "replicate directory commits over loopback TCP to this many replica processes, each with its own fault plane (0 = in-process only)")
	csvOut := fs.Bool("csv", false, "emit CSV instead of the table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := experiments.ValidateShards("chaos: -k", *k); err != nil {
		return err
	}
	if *eras < 1 || *windows < 1 {
		return fmt.Errorf("chaos: -eras and -windows-per-era must be >= 1, got %d and %d", *eras, *windows)
	}
	if *workloadFlag == "" && (*arrival != "" || *hours != 0) {
		return fmt.Errorf("chaos: -arrival/-hours require -workload")
	}
	if *workloadFlag != "" && (set["eras"] || set["windows-per-era"]) {
		return fmt.Errorf("chaos: -eras/-windows-per-era do not apply to -workload")
	}
	if *replicas < 0 {
		return fmt.Errorf("chaos: -replicas must be >= 0, got %d", *replicas)
	}
	method, err := sim.ParseMethod(*methodFlag)
	if err != nil {
		return err
	}

	var gt *sim.GeneratedTrace
	if *workloadFlag != "" {
		sc, err := workload.ResolveScenario(*workloadFlag, *arrival, *hours, *seed)
		if err != nil {
			return err
		}
		// Block the scenario at the drifting-era trace's spacing so the
		// chaos policy parameters below (windows, repartition cadence)
		// keep their meaning.
		sc.BlockInterval = 2 * time.Hour
		if gt, err = sim.GenerateScenario(sc); err != nil {
			return err
		}
	} else {
		gt = experiments.DecayTrace(experiments.DecayParams{
			Seed: *seed, K: *k, Eras: *eras, WindowsPerEra: *windows,
		})
	}
	// An upper bound on chain height: the trace's blocks plus the settle
	// drain; crash schedules may reach into the drain.
	traceBlocks := uint64(48)
	if n := len(gt.Records); n > 0 {
		traceBlocks += uint64(gt.Records[n-1].Block) + 1
	}

	baseCfg := func() opsim.Config {
		policy := experiments.DriftingEraPolicy(method, *k)
		policy.DecayHalfLife = 12 * time.Hour
		return opsim.Config{
			Sim:     policy,
			Model:   shardchain.ModelReceipts,
			Capture: true,
		}
	}

	scenarios, err := chaosScenarios(*scenarioFlag, uint64(*seed), traceBlocks, *k)
	if err != nil {
		return err
	}

	fmt.Printf("oracle: replaying %s records fault-free (k=%d, %s, receipts model)\n",
		report.FormatCount(int64(len(gt.Records))), *k, method)
	oracle, err := opsim.Run(gt, baseCfg())
	if err != nil {
		return fmt.Errorf("chaos: oracle run: %w", err)
	}

	headers := []string{
		"scenario", "crashes", "replayed", "recover(us)", "dropped", "delayed",
		"dups", "suppressed", "stalls", "stale-blk", "max-lag", "torn", "violations",
		"r-applied", "r-stalls", "r-torn",
	}
	var rows [][]string
	totalViolations := 0
	for _, sc := range scenarios {
		inj, err := fault.New(sc.sched)
		if err != nil {
			return fmt.Errorf("chaos: scenario %s: %w", sc.name, err)
		}
		cfg := baseCfg()
		cfg.Fault = inj
		// Replicate the scenario's directory commits to the replica fleet
		// over real sockets; each replica applies through its own fault
		// plane (derived seed) and must still converge to the oracle view.
		// An empty fleet leaves the run in-process.
		fleet, err := startChaosFleet(*replicas, sc.sched)
		if err != nil {
			return fmt.Errorf("chaos: scenario %s: %w", sc.name, err)
		}
		if *replicas > 0 {
			cfg.DirCommitter = fleet.committer
		}
		res, err := opsim.Run(gt, cfg)
		if err != nil {
			fleet.close()
			return fmt.Errorf("chaos: scenario %s: %w", sc.name, err)
		}
		fleetStats, fleetViolations := fleet.finish(res.DirectoryView)
		violations := append(compareToOracle(oracle, res), fleetViolations...)
		totalViolations += len(violations)
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "chaos: %s: INVARIANT VIOLATION: %s\n", sc.name, v)
		}
		m := res.Fault
		recoverUS := "0"
		if m.Crashes > 0 {
			recoverUS = fmt.Sprintf("%.1f", float64(m.RecoveryNanos)/float64(m.Crashes)/1e3)
		}
		rows = append(rows, []string{
			sc.name,
			strconv.FormatUint(m.Crashes, 10),
			strconv.FormatUint(m.ItemsReplayed, 10),
			recoverUS,
			strconv.FormatUint(m.Dropped, 10),
			strconv.FormatUint(m.Delayed, 10),
			strconv.FormatUint(m.Duplicated, 10),
			strconv.FormatUint(m.DupsSuppressed, 10),
			strconv.FormatUint(m.WaveStalls, 10),
			strconv.FormatUint(m.StaleBlocks, 10),
			strconv.FormatUint(m.MaxEpochLag, 10),
			strconv.FormatUint(m.TornCommits, 10),
			strconv.Itoa(len(violations)),
			strconv.FormatUint(fleetStats.applied, 10),
			strconv.FormatUint(fleetStats.waveStalls, 10),
			strconv.FormatUint(fleetStats.torn, 10),
		})
	}

	if *csvOut {
		if err := report.CSV(os.Stdout, headers, rows); err != nil {
			return err
		}
	} else {
		if err := report.Table(os.Stdout, headers, rows); err != nil {
			return err
		}
	}
	if totalViolations > 0 {
		return fmt.Errorf("chaos: %d invariant violation(s)", totalViolations)
	}
	fmt.Printf("\nall scenarios converged byte-identical to the fault-free oracle; zero invariant violations\n"+
		"replica views (%d per scenario, own fault planes) matched the oracle entry-by-entry; zero torn epochs\n",
		*replicas)
	return nil
}

// chaosScenario is one named fault schedule.
type chaosScenario struct {
	name  string
	sched fault.Schedule
}

// chaosScenarios builds the scenario library (or the one selected).
func chaosScenarios(sel string, seed, blocks uint64, k int) ([]chaosScenario, error) {
	all := []chaosScenario{
		{"crash-wave", fault.Schedule{
			Seed:    seed,
			Shards:  k,
			Crashes: fault.PeriodicCrashes(5, blocks, k),
		}},
		{"receipt-loss", fault.Schedule{
			Seed:     seed,
			Shards:   k,
			DropProb: 0.25, DelayProb: 0.2,
		}},
		{"dup-storm", fault.Schedule{
			Seed:    seed,
			Shards:  k,
			DupProb: 0.5, DelayProb: 0.1, ShuffleDeliveries: true,
		}},
		{"flip-stall", fault.Schedule{
			Seed:             seed,
			Shards:           k,
			WaveStallFlushes: 40, CommitFailEvery: 3,
		}},
		{"mixed", fault.Schedule{
			Seed:     seed,
			Shards:   k,
			Crashes:  fault.PeriodicCrashes(7, blocks, k),
			DropProb: 0.15, DelayProb: 0.1, DupProb: 0.2,
			ShuffleDeliveries: true,
			WaveStallFlushes:  25, CommitFailEvery: 5,
		}},
	}
	if sel == "all" || sel == "" {
		return all, nil
	}
	for _, sc := range all {
		if sc.name == sel {
			return []chaosScenario{sc}, nil
		}
	}
	return nil, fmt.Errorf("chaos: unknown scenario %q (crash-wave|receipt-loss|dup-storm|flip-stall|mixed|all)", sel)
}

// compareToOracle checks the convergence invariants of a faulty run
// against the fault-free oracle. Per-window stats are deliberately not
// compared: an injected delay legitimately shifts a settlement into a
// later window; the run-level totals (with the injected share of latency
// subtracted at settlement) must still match exactly.
func compareToOracle(oracle, res *opsim.Result) []string {
	var v []string
	if oracle.Replayed != res.Replayed {
		v = append(v, fmt.Sprintf("replayed %d records, oracle %d", res.Replayed, oracle.Replayed))
	}
	if oracle.Totals != res.Totals {
		v = append(v, fmt.Sprintf("stats diverge: %+v, oracle %+v", res.Totals, oracle.Totals))
	}
	if len(oracle.StateRoots) != len(res.StateRoots) {
		v = append(v, "state root count diverges")
	} else {
		for s := range oracle.StateRoots {
			if oracle.StateRoots[s] != res.StateRoots[s] {
				v = append(v, fmt.Sprintf("shard %d state root diverges: %s, oracle %s",
					s, res.StateRoots[s], oracle.StateRoots[s]))
			}
		}
	}
	if oracle.HomesHash != res.HomesHash {
		v = append(v, "home map diverges")
	}
	if oracle.ReceiptsHash != res.ReceiptsHash {
		v = append(v, "transaction receipts diverge")
	}
	if res.Fault != nil && res.Fault.TornCommits > 0 {
		v = append(v, fmt.Sprintf("%d torn directory commits observed", res.Fault.TornCommits))
	}
	return v
}

// chaosFleet is the networked side of a chaos scenario: N replica processes
// (goroutine-hosted servers over loopback TCP), each applying the primary's
// commit stream through its OWN fault.FlakyDirectory with a derived seed —
// replica-side stalled waves and transient commit failures reorder and
// retry commits locally — and a dirserve.Fanout splice for the primary.
// After the run, every replica must converge entry-by-entry to the
// in-process oracle view with zero torn epochs. The empty fleet (N = 0) is
// the in-process run: nothing to drain, nothing to cross-check.
type chaosFleet struct {
	reps []*chaosReplica
	fan  *dirserve.Fanout
}

type chaosReplica struct {
	dir   *directory.Directory
	inj   *fault.Injector
	flaky *fault.FlakyDirectory
	rp    *dirserve.Replica
	srv   *dirserve.Server
}

// startChaosFleet stands up n replica processes for one scenario. Each
// replica's injector reuses the scenario's directory-fault knobs under a
// seed derived from the replica index, so no two replicas (nor the
// primary) stall or fail the same commits.
func startChaosFleet(n int, sched fault.Schedule) (*chaosFleet, error) {
	fl := &chaosFleet{}
	for i := 0; i < n; i++ {
		inj, err := fault.New(fault.Schedule{
			Seed:             sched.Seed*1_000_003 + uint64(i) + 1,
			Shards:           sched.Shards,
			WaveStallFlushes: sched.WaveStallFlushes,
			CommitFailEvery:  sched.CommitFailEvery,
		})
		if err != nil {
			fl.close()
			return nil, err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fl.close()
			return nil, err
		}
		r := &chaosReplica{dir: directory.New(directory.Config{}), inj: inj}
		r.flaky = fault.NewFlakyCommitter(r.dir, r.dir, inj)
		r.rp = dirserve.NewReplica(r.flaky)
		r.srv = dirserve.Serve(l, dirserve.ServerConfig{Dir: r.dir, Replica: r.rp})
		fl.reps = append(fl.reps, r)
	}
	return fl, nil
}

// committer is the opsim.Config.DirCommitter splice: a fan-out from the
// run's primary directory to every replica process. It sits below the
// primary's fault plane, so replicas receive exactly the landed commit
// sequence with real epoch numbers.
func (fl *chaosFleet) committer(d *directory.Directory) (directory.Committer, error) {
	addrs := make([]string, len(fl.reps))
	for i, r := range fl.reps {
		addrs[i] = r.srv.Addr()
	}
	fan, err := dirserve.NewFanout(d, nil, addrs...)
	if err != nil {
		return nil, err
	}
	fl.fan = fan
	return fan, nil
}

// chaosFleetStats summarises the replica fleet after a scenario.
type chaosFleetStats struct {
	applied    uint64 // contiguous apply watermark (identical across replicas)
	waveStalls uint64 // replica-side injected wave stalls, summed
	torn       uint64 // replica-side torn commits, summed (must be zero)
}

// finish drains the fan-out and every replica's stalled waves, then
// cross-checks each replica's final directory view entry-by-entry (both
// directions) against the in-process oracle snapshot. Violations are
// returned in the chaos run's invariant-violation format.
func (fl *chaosFleet) finish(oracle *directory.Snapshot) (chaosFleetStats, []string) {
	var st chaosFleetStats
	var violations []string
	if fl.fan != nil {
		if err := fl.fan.Close(); err != nil {
			violations = append(violations, fmt.Sprintf("net: fan-out: %v", err))
		}
	}
	for i, r := range fl.reps {
		if err := r.flaky.DrainStalls(); err != nil {
			violations = append(violations, fmt.Sprintf("net: replica %d drain: %v", i, err))
			continue
		}
		m := r.inj.Metrics.Snapshot()
		st.waveStalls += m.WaveStalls
		st.torn += m.TornCommits
		if m.TornCommits > 0 {
			violations = append(violations, fmt.Sprintf("net: replica %d observed %d torn epochs", i, m.TornCommits))
		}
		if st.applied == 0 {
			st.applied = r.rp.Applied()
		} else if r.rp.Applied() != st.applied {
			violations = append(violations, fmt.Sprintf("net: replica %d applied %d epochs, replica 0 applied %d",
				i, r.rp.Applied(), st.applied))
		}
		if oracle == nil {
			violations = append(violations, "net: run produced no oracle directory view")
			continue
		}
		got := r.dir.Current()
		if got.Len() != oracle.Len() {
			violations = append(violations, fmt.Sprintf("net: replica %d holds %d entries, oracle %d",
				i, got.Len(), oracle.Len()))
		}
		// Entry-by-entry, both directions: same vertices, same shards. The
		// comparison is on the served mapping — replica-side stalls reorder
		// tier-only lanes (Retire/Promote) against each other, so tiers may
		// legitimately differ; answers may not.
		diverged := 0
		oracle.Each(func(v graph.VertexID, shard int) bool {
			if sh, ok := got.Lookup(v); !ok || sh != shard {
				violations = append(violations, fmt.Sprintf(
					"net: replica %d vertex %d = %d (ok=%v), oracle %d", i, v, sh, ok, shard))
				diverged++
			}
			return diverged < 5
		})
		got.Each(func(v graph.VertexID, shard int) bool {
			if _, ok := oracle.Lookup(v); !ok {
				violations = append(violations, fmt.Sprintf("net: replica %d holds extra vertex %d", i, v))
				diverged++
			}
			return diverged < 5
		})
	}
	if len(fl.reps) > 0 && st.applied == 0 {
		violations = append(violations, "net: replicas applied zero epochs")
	}
	fl.close()
	return st, violations
}

func (fl *chaosFleet) close() {
	for _, r := range fl.reps {
		if r.srv != nil {
			r.srv.Close()
		}
	}
}
