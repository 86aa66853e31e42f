package opsim

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"ethpart/internal/directory"
	"ethpart/internal/shardchain"
	"ethpart/internal/sim"
	"ethpart/internal/workload"
)

var errInjected = errors.New("injected commit failure")

// failingCommitter commits into the directory until fail says otherwise.
type failingCommitter struct {
	d       *directory.Directory
	commits int
	fail    func(n int, b directory.Batch) bool
}

func (c *failingCommitter) CommitBatch(b directory.Batch, wave bool) (uint64, error) {
	c.commits++
	if c.fail(c.commits, b) {
		return 0, errInjected
	}
	return c.d.CommitBatch(b, wave)
}

func failingAt(fail func(n int, b directory.Batch) bool) func(*directory.Directory) (directory.Committer, error) {
	return func(d *directory.Directory) (directory.Committer, error) {
		return &failingCommitter{d: d, fail: fail}, nil
	}
}

// requireGoroutinesBack fails unless the goroutine count returns to want;
// a stage that has signalled its exit may take a moment to finish it.
func requireGoroutinesBack(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n != want {
		t.Errorf("%d goroutines after Run, %d before: a stage outlived it", n, want)
	}
}

// TestPipelineStageErrors: whichever stage fails, Run returns that failure
// and leaves no goroutine behind. The control stage fails in a publisher
// flush mid-run; the chain stage fails inside a resize barrier, whose
// directory flip is chain-stage work while the control stage waits.
func TestPipelineStageErrors(t *testing.T) {
	small := smallTrace(t)
	control := cfgFor(sim.MethodHash, shardchain.ModelReceipts, 4)
	control.DirCommitter = failingAt(func(n int, _ directory.Batch) bool { return n == 200 })

	chainStage := autoscaleCfg(shardchain.ModelReceipts)
	chainStage.DirCommitter = failingAt(func(_ int, b directory.Batch) bool { return b.Shards != 2 })

	for _, tc := range []struct {
		name, where string
		gt          *sim.GeneratedTrace
		cfg         Config
	}{
		{"control stage", "publishing to directory", small, control},
		{"chain stage", "applying resize", flashTrace(), chainStage},
	} {
		before := runtime.NumGoroutine()
		res, err := Run(tc.gt, tc.cfg)
		if !errors.Is(err, errInjected) || !strings.Contains(err.Error(), tc.where) || res != nil {
			t.Errorf("%s: Run = %v, %v; want the injected failure while %s", tc.name, res, err, tc.where)
		}
		requireGoroutinesBack(t, before)
	}
}

// TestPipelineIndependentOfGOMAXPROCS: how the stages interleave must not
// show in the result — an ops-bridge-shaped cell (era history, k = 4,
// default policy) under each model replays identically on one P and four.
func TestPipelineIndependentOfGOMAXPROCS(t *testing.T) {
	era, err := sim.Generate(workload.Config{Seed: 1, Scale: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, model := range []shardchain.Model{shardchain.ModelReceipts, shardchain.ModelMigration} {
		cfg := Config{Sim: sim.Config{Method: sim.MethodTRMetis, K: 4}, Model: model}
		var runs [2]*Result
		for i, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			if runs[i], err = Run(era, cfg); err != nil {
				t.Fatalf("%v GOMAXPROCS=%d: %v", model, procs, err)
			}
		}
		if runs[0].Sim.Repartitions == 0 {
			t.Fatalf("%v: no wave fired; the check is vacuous", model)
		}
		if !reflect.DeepEqual(stripMeasurement(runs[0]), stripMeasurement(runs[1])) {
			t.Errorf("%v: GOMAXPROCS=1 and GOMAXPROCS=4 runs diverge", model)
		}
	}
}
