package opsim

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ethpart/internal/directory"
	"ethpart/internal/shardchain"
	"ethpart/internal/sim"
)

// inlineSimulator is the lookahead's oracle: the simulator Run would build,
// planning every wave inline as Process-only callers do.
func inlineSimulator(gt *sim.GeneratedTrace, cfg sim.Config) (*sim.Simulator, error) {
	cfg.StorageSlots = gt.StorageSlots
	return sim.New(cfg)
}

// runInline runs cfg with every wave planned inline.
func runInline(t *testing.T, gt *sim.GeneratedTrace, cfg Config) (*Result, error) {
	t.Helper()
	newSimulator = inlineSimulator
	defer func() { newSimulator = sim.NewOver }()
	return Run(gt, cfg)
}

// TestRunLookaheadMatchesInline: a METIS or R-METIS co-simulation, and a
// decay-mode METIS one when a P is spare beside its two stages (under four
// Ps, not under one), plans its waves ahead of the control stage, and must
// come out exactly as the inline plan would — windows,
// totals, the simulator's result, the directory's statistics and the
// convergence artifacts — under both models and at one and several procs.
func TestRunLookaheadMatchesInline(t *testing.T) {
	gt := smallTrace(t)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, model := range []shardchain.Model{shardchain.ModelReceipts, shardchain.ModelMigration} {
			for _, c := range []struct {
				name   string
				method sim.Method
				decay  time.Duration
			}{
				{"METIS", sim.MethodMetis, 0},
				{"R-METIS", sim.MethodRMetis, 0},
				{"decay/METIS", sim.MethodMetis, 12 * time.Hour},
			} {
				t.Run(fmt.Sprintf("procs=%d/%s/%v", procs, c.name, model), func(t *testing.T) {
					cfg := cfgFor(c.method, model, 4)
					cfg.Sim.DecayHalfLife = c.decay
					cfg.Capture = true
					want, err := runInline(t, gt, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if want.Sim.Repartitions == 0 {
						t.Fatal("no wave fired; the cell checks no lookahead plan")
					}
					got, err := Run(gt, cfg)
					if err != nil {
						t.Fatal(err)
					}
					for _, f := range []struct {
						name      string
						got, want any
					}{
						{"Windows", got.Windows, want.Windows},
						{"Totals", got.Totals, want.Totals},
						{"Sim", got.Sim, want.Sim},
						{"DirectoryStats", got.DirectoryStats, want.DirectoryStats},
						{"StateRoots", got.StateRoots, want.StateRoots},
						{"HomesHash", got.HomesHash, want.HomesHash},
						{"ReceiptsHash", got.ReceiptsHash, want.ReceiptsHash},
					} {
						if !reflect.DeepEqual(f.got, f.want) {
							t.Errorf("%s differs from the inline plan:\n got %+v\nwant %+v", f.name, f.got, f.want)
						}
					}
				})
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestRunLookaheadJoinedOnError: a directory commit that fails while the
// lookahead has waves planned or in flight ends Run with that error, and
// every goroutine Run started — the chain stage, the lookahead and its
// partitions — is joined before Run returns.
func TestRunLookaheadJoinedOnError(t *testing.T) {
	gt := smallTrace(t)
	cfg := cfgFor(sim.MethodRMetis, shardchain.ModelMigration, 4)
	var commits, firstWave int
	cfg.DirCommitter = failingAt(func(n int, b directory.Batch) bool {
		commits = n
		if firstWave == 0 && len(b.Set) > 1 {
			firstWave = n // a wave's flip carries many moves
		}
		return false
	})
	if _, err := Run(gt, cfg); err != nil {
		t.Fatal(err)
	}
	if firstWave == 0 {
		t.Fatal("no wave committed; the check is vacuous")
	}
	for _, fail := range []int{firstWave, commits / 2} {
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			cfg.DirCommitter = failingAt(func(n int, _ directory.Batch) bool { return n == fail })
			before := runtime.NumGoroutine()
			res, err := Run(gt, cfg)
			if !errors.Is(err, errInjected) || res != nil {
				t.Errorf("fail at commit %d, procs=%d: Run = %v, %v; want the injected failure", fail, procs, res, err)
			}
			// The previous run's goroutines may still be leaving the count
			// when before is taken, so only growth is a leak.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("fail at commit %d, procs=%d: %d goroutines after Run, %d before", fail, procs, n, before)
			}
			runtime.GOMAXPROCS(prev)
		}
	}
}
