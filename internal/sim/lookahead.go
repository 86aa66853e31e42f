package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ethpart/internal/graph"
	"ethpart/internal/partition/multilevel"
	"ethpart/internal/trace"
)

// The lookahead (DESIGN.md §3): when every wave of a run is a periodic,
// from-scratch multilevel partition of a graph the assignment never shapes
// — the cumulative graph (METIS) or the window since the last wave
// (R-METIS) in full-history mode, or the decayed live graph (METIS) in
// decay mode, all at fixed k — each wave's trigger and input are functions
// of the records alone. NewOver then runs the simulator's clock over the
// same records on a goroutine of its own, builds each wave's CSR as soon as
// its boundary passes and partitions it on a further goroutine, so several
// waves partition at once while the simulator catches up. The simulator
// takes the plans in wave order.

// flightBudget bounds the partitions running at once by the records their
// sources hold, as a multiple of the trace's. A partition's scratch grows
// with its input, most of it the root bisection's coarsening ladder (DESIGN
// §4), and no inline wave partitions more than the whole trace, so the
// lookahead's partitions together need at most half again the scratch of
// the largest inline wave. Swept on the ledger's fig-replay (2 vCPU, go1.24,
// seeds 4–7, each seed's runs alternated), medians:
//
//	budget              1.25 (int64)  1.25    1.5     1.75
//	peak_sys_mb         202.8         176.7   188.5   202.8
//	records_per_s       206k          241k    239k    278k
//
// and again once the ladder stopped storing its odd levels:
//
//	budget              1.5     1.75
//	peak_sys_mb         178.5   198.7
//	records_per_s       252k    264k
//
// Both times 1.75 took some seed's peak past the int64 partitioner's
// 202.8 MiB, so 1.5 stays the largest budget that holds it.
//
// A window source is charged the records since the last wave, a union
// source every record so far. A decaying source is charged its live edge
// count: every live edge stands for at least one record inside the
// retention horizon, and the CSR the scratch grows with has no more edges
// than the live graph.
const flightBudget = 1.5

// lookaheadEligible reports whether every wave the simulator can fire
// depends on the records alone: a periodic trigger, a from-scratch
// multilevel plan and no autoscaler, with a window or cumulative source in
// full-history mode or, in decay mode, the decayed live graph. A decaying
// source is planned ahead only onto a spare P (occupySpareP).
func (s *Simulator) lookaheadEligible() bool {
	if s.policy.trigger != triggerPeriodic || s.policy.refine || s.cfg.Autoscale.Enabled {
		return false
	}
	return !s.decayEnabled() || s.policy.source == sourceFull
}

// procs counts the Ps this process's simulations keep busy, so that a
// lookahead runs a decaying replica, which repeats the simulator's graph
// work, only on a P nothing else claims (DESIGN §3). Every simulator walks
// its records on one P: a worker of a running RunIndexed pool, or, outside
// any pool, its caller's.
var procs struct {
	pooled atomic.Int32 // workers of running RunIndexed pools
	extra  atomic.Int32 // goroutines beside a walk: Occupy holders, replicas
}

// Occupy records that the caller keeps a goroutine busy beside its
// simulator's walk, as opsim's chain stage does, until it calls release.
func Occupy() (release func()) {
	procs.extra.Add(1)
	return func() { procs.extra.Add(-1) }
}

// occupySpareP occupies a P for a decaying replica if the walks (the
// pools' workers, or at least the caller's own) and the goroutines beside
// them leave one free under GOMAXPROCS, and returns its release; it
// returns nil if none is free.
func occupySpareP() (release func()) {
	for {
		extra := procs.extra.Load()
		if max(procs.pooled.Load(), 1)+extra+1 > int32(runtime.GOMAXPROCS(0)) {
			return nil
		}
		if procs.extra.CompareAndSwap(extra, extra+1) {
			return func() { procs.extra.Add(-1) }
		}
	}
}

// aheadSource is the graph a lookahead's waves partition.
type aheadSource int

const (
	// aheadWindow is the window since the last wave (R-METIS).
	aheadWindow aheadSource = iota
	// aheadUnion is the cumulative graph, assembled as the union of every
	// window's CSR so far (METIS), which spares the lookahead a second
	// cumulative graph beside the simulator's.
	aheadUnion
	// aheadDecaying is the decayed live graph (METIS in decay mode), on a
	// replica of the simulator's decaying graph that sees the same records
	// and the same sweeps.
	aheadDecaying
)

// aheadWalk is what a lookahead walks the records with: its own copy of the
// simulator's clock, the source, the decay of a decaying source, and the
// partitioner at k.
type aheadWalk struct {
	clk    clock
	src    aheadSource
	factor float64 // per-window decay factor (aheadDecaying)
	maxAge uint32  // retention horizon in sweeps (aheadDecaying)
	ml     *multilevel.Partitioner
	k      int
}

// lookahead is a running lookahead: a bounded queue of wave plans in wave
// order, and everything Close must join.
type lookahead struct {
	// plans holds GOMAXPROCS plans; while it is full the lookahead waits.
	plans chan *aheadPlan
	quit  chan struct{}
	wg    sync.WaitGroup
	// release gives back the P a decaying replica occupies.
	release func()
	// err is why the lookahead stopped before the last record; it is
	// written before plans is closed.
	err error
}

// aheadPlan is one wave's plan: the wave's boundary and, once done is
// closed, the source vertices in CSR order and a shard for each.
type aheadPlan struct {
	at    time.Time
	done  chan struct{}
	ids   []graph.VertexID
	parts []int
	err   error
}

// startLookahead starts planning the waves of s's run over records ahead
// of s, unless its source is decaying and no P is spare, in which case s
// plans inline. s must be lookahead-eligible and must not have processed a
// record yet.
func (s *Simulator) startLookahead(records []trace.Record) {
	w := aheadWalk{clk: s.clk, src: aheadWindow, ml: s.ml, k: s.cfg.K}
	release := func() {}
	switch {
	case s.decayEnabled():
		if release = occupySpareP(); release == nil {
			return
		}
		w.src, w.factor, w.maxAge = aheadDecaying, s.decayFactor, s.decayAge
	case s.policy.source == sourceFull:
		w.src = aheadUnion
	}
	la := &lookahead{
		plans:   make(chan *aheadPlan, runtime.GOMAXPROCS(0)),
		quit:    make(chan struct{}),
		release: release,
	}
	la.wg.Add(1)
	go func() {
		defer la.wg.Done()
		defer close(la.plans)
		la.err = la.run(records, w)
	}()
	s.ahead = la
	// The lookahead builds the window graph; the simulator needs none.
	s.window = nil
}

// run walks the records with its own clock and source graph and hands out
// one plan per wave, in order. A window or union source fills a window
// graph and empties it at every wave; a decaying source fills a decaying
// graph and sweeps it at every boundary exactly as decayStep sweeps the
// simulator's, skipping it while it is empty.
func (la *lookahead) run(records []trace.Record, w aheadWalk) error {
	g := graph.New()
	if w.src == aheadDecaying {
		var err error
		if g, err = graph.NewDecaying(w.maxAge); err != nil {
			return err
		}
	}
	var (
		clk      = w.clk
		csrb     graph.CSRBuilder
		cum      *graph.CSR
		fl       = flights{max: runtime.GOMAXPROCS(0), budget: int(flightBudget * float64(len(records)))}
		lastWave int // index of the first record after the last wave
	)
	for i := range records {
		rec := &records[i]
		if err := clk.admit(rec.Time); err != nil {
			return err
		}
		for clk.crossed(rec.Time) {
			now := clk.roll()
			if w.src == aheadDecaying && g.VertexCount() > 0 {
				g.DecaySweep(w.factor, nil, nil)
			}
			if !clk.due(now) {
				continue
			}
			clk.lastWave = now
			var csr *graph.CSR
			if g.VertexCount() > 0 {
				csr = csrb.Build(g)
			}
			var n int // the source's charge against the flight budget
			switch w.src {
			case aheadWindow:
				g.Reset()
				n = i - lastWave
			case aheadUnion:
				g.Reset()
				if csr != nil {
					cum = unionCSR(cum, csr)
				}
				csr, n = cum, i
			case aheadDecaying:
				n = g.EdgeCount()
			}
			lastWave = i
			p := &aheadPlan{at: now, done: make(chan struct{})}
			if csr == nil {
				close(p.done) // an empty source plans nothing, as inline
			} else {
				if !fl.wait(n, la.quit) {
					return nil
				}
				fl.add(p.done, n)
				la.partition(p, csr, w.ml, w.k)
			}
			select {
			case la.plans <- p:
			case <-la.quit:
				return nil
			}
		}
		if err := rec.Apply(g); err != nil {
			return err
		}
	}
	return nil
}

// flights tracks the lookahead's running partitions, oldest first, with
// the records of each one's source.
type flights struct {
	max, budget int
	running     []flight
	load        int // records of all running sources
}

type flight struct {
	done    <-chan struct{}
	records int
}

// wait blocks until a partition of an n-record source may start: while
// max partitions run, or their sources and this one would together exceed
// the budget, it waits for the oldest to finish. A partition always starts
// when none runs. wait reports false if quit closes first.
func (f *flights) wait(n int, quit <-chan struct{}) bool {
	for len(f.running) > 0 && (len(f.running) == f.max || f.load+n > f.budget) {
		select {
		case <-f.running[0].done:
		case <-quit:
			return false
		}
		f.load -= f.running[0].records
		f.running = f.running[1:]
	}
	return true
}

// add records a partition that has started.
func (f *flights) add(done <-chan struct{}, n int) {
	f.running = append(f.running, flight{done, n})
	f.load += n
}

// partition partitions csr for p on its own goroutine, closing p.done when
// the plan is complete.
func (la *lookahead) partition(p *aheadPlan, csr *graph.CSR, ml *multilevel.Partitioner, k int) {
	p.ids = csr.IDs
	la.wg.Add(1)
	go func() {
		defer la.wg.Done()
		defer close(p.done)
		p.parts, p.err = ml.Partition(csr, k)
		if p.err == nil && len(p.parts) != csr.N() {
			p.err = fmt.Errorf("partitioner returned %d entries for %d vertices", len(p.parts), csr.N())
		}
	}()
}

// next waits for the plan of the wave at boundary now.
func (la *lookahead) next(now time.Time) ([]graph.VertexID, []int, error) {
	p, ok := <-la.plans
	if !ok {
		if la.err != nil {
			return nil, nil, fmt.Errorf("lookahead: %w", la.err)
		}
		return nil, nil, fmt.Errorf("lookahead has no plan for the wave at %v", now)
	}
	<-p.done
	if !p.at.Equal(now) {
		return nil, nil, fmt.Errorf("lookahead planned the wave at %v, the simulator is at %v", p.at, now)
	}
	return p.ids, p.parts, p.err
}

// stop ends the lookahead, joins it and every partition it started, and
// gives back the P its replica occupied.
func (la *lookahead) stop() {
	close(la.quit)
	la.wg.Wait()
	la.release()
}

// unionCSR returns the CSR of the union of the graphs a and b are the CSRs
// of: the vertices of either, with vertex weights and the weights of common
// edges summed. Every field of a CSR is a sum over interactions, so the
// result equals CSRBuilder.Build on one graph holding both graphs'
// interactions. A nil a is the empty graph.
func unionCSR(a, b *graph.CSR) *graph.CSR {
	if a == nil {
		return b
	}
	// Merge the sorted ID lists; amap and bmap send each side's local
	// indices to the union's, preserving their order.
	ids := make([]graph.VertexID, 0, a.N()+b.N())
	amap, bmap := make([]int32, a.N()), make([]int32, b.N())
	for i, j := 0, 0; i < a.N() || j < b.N(); {
		x := int32(len(ids))
		switch {
		case j == b.N() || i < a.N() && a.IDs[i] < b.IDs[j]:
			ids, amap[i] = append(ids, a.IDs[i]), x
			i++
		case i == a.N() || b.IDs[j] < a.IDs[i]:
			ids, bmap[j] = append(ids, b.IDs[j]), x
			j++
		default:
			ids, amap[i], bmap[j] = append(ids, a.IDs[i]), x, x
			i++
			j++
		}
	}
	n := len(ids)
	c := &graph.CSR{
		IDs:     ids,
		VW:      make([]int64, n),
		XAdj:    make([]int32, n+1),
		Adj:     make([]int32, 0, len(a.Adj)+len(b.Adj)),
		AdjW:    make([]int64, 0, len(a.Adj)+len(b.Adj)),
		TotalVW: a.TotalVW + b.TotalVW,
	}
	// Each union row is the merge of the two sides' rows, both ascending
	// once mapped.
	i, j := 0, 0
	for x := int32(0); int(x) < n; x++ {
		var ra, rb []int32
		var wa, wb []int64
		if i < a.N() && amap[i] == x {
			ra, wa = a.Row(int32(i))
			c.VW[x] += a.VW[i]
			i++
		}
		if j < b.N() && bmap[j] == x {
			rb, wb = b.Row(int32(j))
			c.VW[x] += b.VW[j]
			j++
		}
		for p, q := 0, 0; p < len(ra) || q < len(rb); {
			var u int32
			var w int64
			switch {
			case q == len(rb) || p < len(ra) && amap[ra[p]] < bmap[rb[q]]:
				u, w = amap[ra[p]], wa[p]
				p++
			case p == len(ra) || bmap[rb[q]] < amap[ra[p]]:
				u, w = bmap[rb[q]], wb[q]
				q++
			default:
				u, w = amap[ra[p]], wa[p]+wb[q]
				p++
				q++
			}
			c.Adj = append(c.Adj, u)
			c.AdjW = append(c.AdjW, w)
			if x < u { // count each undirected edge once
				c.TotalEW += w
				c.NumEdges++
			}
		}
		c.XAdj[x+1] = int32(len(c.Adj))
	}
	return c
}
