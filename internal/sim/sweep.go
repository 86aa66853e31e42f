package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// RunSweep replays every configuration in cfgs over the shared trace,
// spreading the runs across up to GOMAXPROCS workers. The trace is only
// read and every worker builds its own Simulator, so results are identical
// to calling Replay serially for each configuration; they are returned in
// cfgs order. The method×k sweeps behind Fig. 4 and Fig. 5 are exactly this
// shape — independent replays of one immutable history — which makes the
// sweep wall-clock scale with available cores.
//
// Peak memory scales with the worker count: every in-flight replay holds
// its own cumulative graph and assignment. A METIS or R-METIS replay also
// runs Replay's lookahead, which adds a goroutine plus one per wave it
// partitions ahead, and the CSRs and partitioner scratch of those waves —
// bounded per replay by GOMAXPROCS waves and by their sources' records
// (DESIGN.md §3). On machines where that is too much, lower GOMAXPROCS for
// the process — the pool and the lookaheads follow it.
//
// The first error encountered is returned (with its configuration's index);
// remaining runs still complete.
func RunSweep(gt *GeneratedTrace, cfgs []Config) ([]*Result, error) {
	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	RunIndexed(len(cfgs), func(i int) {
		results[i], errs[i] = Replay(gt, cfgs[i])
	})
	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("sim: sweep config %d (%v k=%d): %w",
				i, cfgs[i].Method, cfgs[i].K, err)
		}
	}
	return results, nil
}

// RunIndexed runs fn for every index in [0, n) across up to GOMAXPROCS
// workers and waits for completion. It is the indexed worker pool behind
// RunSweep, exported for sweeps whose work items are not sim.Configs (the
// operational method×model matrix in internal/experiments uses it for
// opsim runs). Its workers count as busy Ps while they run, so a
// simulator in the pool runs no decaying replica on a P the pool needs.
func RunIndexed(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	procs.pooled.Add(int32(max(workers, 0))) // before any worker starts a simulator
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer procs.pooled.Add(-1)
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
