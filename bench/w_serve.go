package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ethpart/internal/directory"
	"ethpart/internal/dirserve"
	"ethpart/internal/graph"
	"ethpart/internal/sim"
)

const (
	replicas = 2
	// loadShare of the record stream has its commits replicated flat out
	// in the load phase; the commits of the rest are paced across the read
	// phase, whose lookups ask for those same records' endpoints.
	loadShare = 0.8
	// drainDeadline bounds the wait for the replicas after the load phase's
	// last commit: a dropped feed fails the run instead of hanging it.
	drainDeadline = 30 * time.Second
)

// commit is one captured epoch flip.
type commit struct {
	batch directory.Batch
	wave  bool
}

// schedule is the commit sequence a live publisher performs over the
// history, with the keys a router would look up while its tail runs.
type schedule struct {
	commits []commit
	waves   int
	// loadRecords records produce the first loadCommits commits.
	loadRecords, loadCommits int
	// keys are the From/To endpoints of the records after loadRecords.
	keys []graph.VertexID
}

// recordingCommitter captures what a directory.Publisher commits. The
// publisher hands over freshly allocated batches (see Publisher.take), so
// they are kept without copying.
type recordingCommitter struct{ sched *schedule }

func (r recordingCommitter) CommitBatch(b directory.Batch, wave bool) (uint64, error) {
	r.sched.commits = append(r.sched.commits, commit{b, wave})
	if wave {
		r.sched.waves++
	}
	return uint64(len(r.sched.commits)), nil
}

// captureSchedule replays the history once under TR-METIS with a 7-day
// half-life, driving a real publisher the way the operational bridge
// does: placements flush per record, a wave commits as one flip.
func captureSchedule(gt *sim.GeneratedTrace) (*schedule, error) {
	sched := &schedule{loadRecords: int(float64(len(gt.Records)) * loadShare)}
	pub := directory.NewPublisher(recordingCommitter{sched})
	pub.SetShards(shards)
	var s *sim.Simulator
	pub.SetLive(func(v graph.VertexID) bool { return s.Graph().HasVertex(v) })
	var pubErr error
	s, err := sim.New(sim.Config{
		Method: sim.MethodTRMetis, K: shards, DecayHalfLife: 7 * 24 * time.Hour,
		StorageSlots: gt.StorageSlots,
		OnPlace:      pub.OnPlace,
		OnMove:       pub.OnMove,
		OnRetire:     pub.OnRetire,
		OnRepartition: func(_ time.Time, moves int) {
			if err := pub.OnRepartition(moves); err != nil && pubErr == nil {
				pubErr = err
			}
		},
	})
	if err != nil {
		return nil, err
	}
	for i, r := range gt.Records {
		if i == sched.loadRecords {
			sched.loadCommits = len(sched.commits)
		}
		if err := s.Process(r); err != nil {
			return nil, err
		}
		if err := pub.Flush(); err != nil {
			return nil, err
		}
		if pubErr != nil {
			return nil, pubErr
		}
	}
	s.Finish()
	for _, r := range gt.Records[sched.loadRecords:] {
		sched.keys = append(sched.keys, graph.VertexID(r.From), graph.VertexID(r.To))
	}
	if len(sched.keys) < lookupIDs || sched.loadCommits == 0 || sched.loadCommits == len(sched.commits) {
		return nil, fmt.Errorf("history too short for a serving schedule: %d+%d commits, %d keys",
			sched.loadCommits, len(sched.commits)-sched.loadCommits, len(sched.keys))
	}
	return sched, nil
}

// fleet is one primary with its replicas, each replica a goroutine-hosted
// server on a loopback listener.
type fleet struct {
	primary *directory.Directory
	fan     *dirserve.Fanout
	reps    []*dirserve.Replica
	repDirs []*directory.Directory
	servers []*dirserve.Server // the primary's front end first
}

// startFleet stands the fleet up; inner, when non-nil, wraps the primary
// directory as the fan-out's inner committer. No hint ring is attached
// anywhere: promotion on access depends on timing, and the ledger wants
// the final tiers to repeat bit for bit.
func startFleet(inner func(*directory.Directory) directory.Committer) (*fleet, error) {
	f := &fleet{primary: directory.New(directory.Config{})}
	serve := func(cfg dirserve.ServerConfig) error {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		f.servers = append(f.servers, dirserve.Serve(l, cfg))
		return nil
	}
	if err := serve(dirserve.ServerConfig{Dir: f.primary}); err != nil {
		return nil, err
	}
	for i := 0; i < replicas; i++ {
		dir := directory.New(directory.Config{})
		rp := dirserve.NewReplica(dir)
		if err := serve(dirserve.ServerConfig{Dir: dir, Replica: rp}); err != nil {
			f.close()
			return nil, err
		}
		f.reps, f.repDirs = append(f.reps, rp), append(f.repDirs, dir)
	}
	var c directory.Committer = f.primary
	if inner != nil {
		c = inner(f.primary)
	}
	fan, err := dirserve.NewFanout(c, nil, f.addrs()[1:]...)
	if err != nil {
		f.close()
		return nil, err
	}
	f.fan = fan
	return f, nil
}

func (f *fleet) addrs() []string {
	addrs := make([]string, len(f.servers))
	for i, s := range f.servers {
		addrs[i] = s.Addr()
	}
	return addrs
}

// flush closes the fan-out, once: every queued shipment is sent and acked.
func (f *fleet) flush() error {
	if f.fan == nil {
		return nil
	}
	fan := f.fan
	f.fan = nil
	return fan.Close()
}

// close stops every goroutine and socket of the fleet.
func (f *fleet) close() {
	_ = f.flush() // a pass that got this far has already checked it
	for _, s := range f.servers {
		s.Close()
	}
}

// converged reports whether every replica has applied the primary's epoch.
func (f *fleet) converged() bool {
	for _, rp := range f.reps {
		if rp.Applied() != f.primary.Epoch() {
			return false
		}
	}
	return true
}

// servePass is what one load + read pass measured.
type servePass struct {
	loadWall, drain time.Duration
	mallocs, allocB uint64 // load phase
	sysMiB          float64
	lag             []dirserve.FeedStat // after the load phase
	// Per read segment: the batch rate and the median round trip.
	batchesPerS, rttP50us []float64
	rtts                  []int64 // every batch round trip, ns
	attempted, failed     int64
	stale, repins         int64
	coldHits, ids         int64
	late                  []int64 // paced writer: sent minus due, ns
	readCommitNs          []int64 // paced writer: commit latency, ns
	stats                 directory.Stats
	view                  *directory.Snapshot
	// Traced pass only: every load-phase Fanout.CommitBatch latency, and
	// the timing committer under the fan-out.
	outerNs []int64
	inner   *timedCommitter
}

// runPass stands up a fleet, loads it, reads from it beside paced writes,
// checks convergence and tears it down.
func runPass(env *runEnv, sched *schedule, traced bool) (*servePass, error) {
	p := new(servePass)
	var wrap func(*directory.Directory) directory.Committer
	if traced {
		wrap = func(d *directory.Directory) directory.Committer {
			p.inner = &timedCommitter{inner: d}
			return p.inner
		}
	}
	f, err := startFleet(wrap)
	if err != nil {
		return nil, err
	}
	defer f.close()
	if err := p.load(env, sched, f, traced); err != nil {
		return nil, err
	}
	if err := p.read(env, sched, f, traced); err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.sysMiB = float64(ms.Sys) / mib

	// Every commit is in; the feeds drain, and each replica must hold the
	// primary's view entry for entry.
	if err := f.flush(); err != nil {
		return nil, err
	}
	for _, s := range f.servers {
		p.coldHits += s.ColdHits()
		p.ids += s.Lookups()
	}
	p.stats, p.view = f.primary.Stats(), f.primary.Current()
	for i, rp := range f.reps {
		if rp.Applied() != p.view.Epoch() {
			return nil, fmt.Errorf("replica %d applied %d epochs, primary is at %d", i, rp.Applied(), p.view.Epoch())
		}
		got := f.repDirs[i].Current()
		if got.Len() != p.view.Len() || got.HotLen() != p.view.HotLen() {
			return nil, fmt.Errorf("replica %d holds %d entries (%d hot), primary %d (%d hot)",
				i, got.Len(), got.HotLen(), p.view.Len(), p.view.HotLen())
		}
		same := true
		p.view.Each(func(v graph.VertexID, shard int) bool {
			sh, ok := got.Lookup(v)
			same = ok && sh == shard
			return same
		})
		if !same {
			return nil, fmt.Errorf("replica %d's view diverged from the primary's", i)
		}
	}
	return p, p.verifyWire(sched, f)
}

// load is the load phase: the head of the schedule flat out through the
// fan-out, timed until every replica has applied every epoch.
func (p *servePass) load(env *runEnv, sched *schedule, f *fleet, traced bool) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for _, c := range sched.commits[:sched.loadCommits] {
		var t0 time.Time
		if traced {
			t0 = time.Now()
		}
		if _, err := f.fan.CommitBatch(c.batch, c.wave); err != nil {
			return fmt.Errorf("load phase: %w", err)
		}
		if traced {
			p.outerNs = append(p.outerNs, time.Since(t0).Nanoseconds())
		}
	}
	committed := time.Now()
	for !f.converged() {
		if time.Since(committed) > drainDeadline {
			return fmt.Errorf("load phase: replicas have not applied the primary's epoch %d after %v", f.primary.Epoch(), drainDeadline)
		}
		time.Sleep(50 * time.Microsecond)
	}
	end := time.Now()
	p.loadWall = end.Sub(start)
	runtime.ReadMemStats(&after)
	p.drain = end.Sub(committed)
	p.mallocs, p.allocB = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	p.lag = f.fan.FeedStats()
	if traced {
		var outer int64
		for _, d := range p.outerNs {
			outer += d
		}
		id := env.rec.add(-1, "bench.load_phase", "", start, end, int64(sched.loadCommits))
		fan := env.rec.addBusy(id, "", busy{"dirserve.fanout_commit", outer, int64(sched.loadCommits)})
		env.rec.addBusy(fan[0], "", busy{"directory.commit", p.inner.total(), int64(len(p.inner.ns))})
		env.rec.add(id, "dirserve.drain", "", committed, end, 0)
	}
	return nil
}

// read is the read phase: closed-loop readers — the directory's caller, a
// router pinning one epoch per block, waits for its reply — each sending
// 256-ID batches of real endpoints, beside a writer pacing the schedule's
// tail evenly across the phase. The phase runs as back-to-back segments:
// the size's minimum, or as many as fit the -seconds budget if that is more.
func (p *servePass) read(env *runEnv, sched *schedule, f *fleet, traced bool) error {
	segLen := env.size.readSegment
	segments := max(int(env.seconds/segLen.Seconds()), env.size.readSegments)

	// One load-generating goroutine per role, never more readers than CPUs.
	readers := min(2, runtime.NumCPU())
	clients := make([]*dirserve.Client, readers)
	pos := make([]int, readers)
	for r := range clients {
		c, err := dirserve.Dial(f.addrs()...)
		if err != nil {
			return err
		}
		defer c.Close()
		clients[r] = c
		// Each reader walks the key stream from its own offset.
		pos[r] = r * (len(sched.keys) / readers) / lookupIDs * lookupIDs
	}
	tail := sched.commits[sched.loadCommits:]
	start := time.Now()
	for k := 0; k < segments; k++ {
		commits := tail[k*len(tail)/segments : (k+1)*len(tail)/segments]
		rtts, wall, err := p.readSegment(sched, f, clients, pos, commits, segLen)
		if err != nil {
			return err
		}
		p.batchesPerS = append(p.batchesPerS, float64(len(rtts))/wall.Seconds())
		p.rttP50us = append(p.rttP50us, nsQuantile(rtts, 0.5)/nsPerUs)
		p.rtts = append(p.rtts, rtts...)
	}
	end := time.Now()
	for _, c := range clients {
		p.stale += c.StaleBatches
		p.repins += c.Repins
	}
	if traced {
		var rtt int64
		for _, d := range p.rtts {
			rtt += d
		}
		// Readers overlap each other; each one's loop is back to back.
		id := env.rec.add(-1, "bench.read_phase", "", start, end, 0)
		env.rec.addBusy(id, "", busy{"dirserve.lookup_batch", rtt / int64(readers), int64(len(p.rtts))})
	}
	return nil
}

// readSegment runs the readers for segLen beside the writer pacing
// commits evenly across it, and returns every batch's round trip and the
// time until the last reader stopped. pos holds each reader's place in the
// key stream from one segment to the next.
func (p *servePass) readSegment(sched *schedule, f *fleet, clients []*dirserve.Client, pos []int, commits []commit, segLen time.Duration) ([]int64, time.Duration, error) {
	rtts := make([][]int64, len(clients))
	errs := make([]error, len(clients))
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for r := range clients {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			out := make([]int32, lookupIDs)
			for !stop.Load() {
				if pos[r]+lookupIDs > len(sched.keys) {
					pos[r] = 0
				}
				ids := sched.keys[pos[r] : pos[r]+lookupIDs]
				pos[r] += lookupIDs
				t0 := time.Now()
				_, _, err := clients[r].LookupBatch(ids, out)
				rtt := time.Since(t0).Nanoseconds()
				for _, sh := range out {
					// A vertex the paced writer has not placed yet is unmapped.
					if err == nil && (sh < dirserve.NoShard || sh >= shards) {
						err = fmt.Errorf("vertex answered shard %d of %d", sh, shards)
					}
				}
				if err != nil {
					errs[r] = err
					return
				}
				rtts[r] = append(rtts[r], rtt)
			}
		}(r)
	}
	interval := segLen / time.Duration(len(commits)+1)
	var writeErr error
	for i, c := range commits {
		due := start.Add(interval * time.Duration(i+1))
		time.Sleep(time.Until(due))
		t0 := time.Now()
		if _, writeErr = f.fan.CommitBatch(c.batch, c.wave); writeErr != nil {
			break
		}
		p.late = append(p.late, t0.Sub(due).Nanoseconds())
		p.readCommitNs = append(p.readCommitNs, time.Since(t0).Nanoseconds())
	}
	time.Sleep(time.Until(start.Add(segLen)))
	stop.Store(true)
	wg.Wait()
	wall := time.Since(start)
	if writeErr != nil {
		return nil, 0, fmt.Errorf("read phase writer: %w", writeErr)
	}
	var all []int64
	for r := range rtts {
		all = append(all, rtts[r]...)
		p.attempted += int64(len(rtts[r]))
		if errs[r] != nil {
			// The reader stopped at its first errored or invalid batch.
			p.attempted++
			p.failed++
			return nil, 0, fmt.Errorf("reader %d: %w", r, errs[r])
		}
	}
	return all, wall, nil
}

// verifyWire checks that, with every commit applied everywhere, what the
// wire answers is what the primary holds.
func (p *servePass) verifyWire(sched *schedule, f *fleet) error {
	c, err := dirserve.Dial(f.addrs()...)
	if err != nil {
		return err
	}
	defer c.Close()
	out := make([]int32, lookupIDs)
	for pos := 0; pos+lookupIDs <= len(sched.keys) && pos < 64*lookupIDs; pos += lookupIDs {
		ids := sched.keys[pos : pos+lookupIDs]
		if _, _, err := c.LookupBatch(ids, out); err != nil {
			return fmt.Errorf("verifying lookups: %w", err)
		}
		for i, v := range ids {
			if sh, ok := p.view.Lookup(v); !ok || int32(sh) != out[i] {
				return fmt.Errorf("wire lookup of vertex %d answered shard %d, the primary holds %d", v, out[i], sh)
			}
		}
	}
	return nil
}

// runServeNet is the networked serving tier, writes beside reads, on a
// realistic working set: the era history's commit schedule under TR-METIS
// with a 7-day half-life replicated to two replicas over loopback TCP,
// then 256-ID batch lookups of the stream's real endpoints. sim, graph and
// multilevel only run in set-up; shardchain and opsim are never called.
func runServeNet(env *runEnv) (*outcome, error) {
	o := newOutcome()
	var sched *schedule
	st, err := runSetup(env, generateEra, func(gt *sim.GeneratedTrace) (err error) {
		sched, err = captureSchedule(gt)
		return err
	})
	if err != nil {
		return nil, err
	}
	st.emit(env, o)

	p, err := runPass(env, sched, false)
	if err != nil {
		return nil, err
	}
	// The read phase reads as the median of its segments.
	q1, batchesPerS, q3 := quartiles(p.batchesPerS)
	r1, rttP50us, r3 := quartiles(p.rttP50us)
	fmt.Fprintf(env.log, "load phase: %d epochs in %.3f s (drain %.1f ms)\n",
		sched.loadCommits, p.loadWall.Seconds(), float64(p.drain.Nanoseconds())/nsPerMs)
	fmt.Fprintf(env.log, "read phase: %d segments of %v, batches/s %.0f: median %.0f (quartiles %.0f %.0f)\n",
		len(p.batchesPerS), env.size.readSegment, p.batchesPerS, batchesPerS, q1, q3)
	fmt.Fprintf(env.log, "read phase: rtt p50, median over segments %.2f us (quartiles %.2f %.2f)\n", rttP50us, r1, r3)
	fmt.Fprintf(env.log, "paced writer: %d commits, lateness p99 %.1f us\n", len(p.late), nsQuantile(p.late, 0.99)/nsPerUs)
	// A batch carries both endpoints of lookupIDs/2 records.
	o.metrics["records_per_s"] = batchesPerS * lookupIDs / 2
	o.metrics["allocs_per_record"] = float64(p.mallocs) / float64(sched.loadRecords)
	o.metrics["alloc_bytes_per_record"] = float64(p.allocB) / float64(sched.loadRecords)
	o.metrics["peak_sys_mb"] = p.sysMiB
	o.attempted, o.failed = p.attempted, p.failed
	o.counts["directory.epochs"] = float64(p.stats.Epoch)
	o.counts["directory.waves"] = float64(p.stats.WaveFlips)
	o.counts["directory.entries"] = float64(p.stats.Entries)
	o.counts["directory.hot"] = float64(p.stats.Hot)
	o.counts["directory.cold"] = float64(p.stats.Cold)
	o.counts["directory.pages"] = float64(p.stats.Pages)
	if int(p.stats.Epoch) != len(sched.commits) || int(p.stats.WaveFlips) != sched.waves {
		o.failf("primary is at epoch %d with %d waves, the schedule has %d commits and %d waves",
			p.stats.Epoch, p.stats.WaveFlips, len(sched.commits), sched.waves)
	}
	if env.rec == nil {
		return o, nil
	}

	// What a user of the serving tier sees comes from the untraced pass.
	o.metrics["repl_commits_per_s"] = float64(sched.loadCommits) / p.loadWall.Seconds()
	o.metrics["lookup_batches_per_s"] = batchesPerS
	o.metrics["lookup_rtt_p50_us"] = rttP50us

	t, err := runPass(env, sched, true)
	if err != nil {
		return nil, err
	}
	if t.stats != p.stats {
		o.failf("traced pass left the directory at %+v, the untraced pass at %+v", t.stats, p.stats)
	}
	o.metrics["bench.trace_overhead_frac"] = t.loadWall.Seconds()/p.loadWall.Seconds() - 1
	in := t.inner
	self := make([]int64, len(t.outerNs))
	for i := range self {
		self[i] = t.outerNs[i] - in.ns[i] // the load phase's commits come first in both
	}
	us := func(ns []int64, q float64) float64 { return nsQuantile(ns, q) / nsPerUs }
	o.metrics["directory.moves_per_commit"] = float64(in.moves) / float64(len(in.ns))
	o.metrics["directory.commit_us_p50"] = us(in.ns, 0.5)
	o.metrics["directory.commit_us_p99"] = us(in.ns, 0.99)
	o.metrics["directory.wave_commit_us_p50"] = us(in.waveNs, 0.5)
	o.metrics["dirserve.fanout_self_us_p50"] = us(self, 0.5)
	o.metrics["dirserve.fanout_self_us_p99"] = us(self, 0.99)
	o.metrics["dirserve.drain_ms"] = float64(t.drain.Nanoseconds()) / nsPerMs
	for _, fs := range t.lag {
		o.metrics["dirserve.lag_epochs_max"] = max(o.metrics["dirserve.lag_epochs_max"], float64(fs.LagMax))
		o.metrics["dirserve.lag_epochs_mean"] += fs.LagMean / float64(len(t.lag))
	}
	o.metrics["dirserve.lookup_rtt_p99_us"] = us(t.rtts, 0.99)
	o.metrics["dirserve.lookup_rtt_p999_us"] = us(t.rtts, 0.999)
	o.metrics["dirserve.read_commit_us_p99"] = us(t.readCommitNs, 0.99)
	o.metrics["dirserve.writer_late_us_p99"] = us(t.late, 0.99)
	o.metrics["dirserve.stale_batch_frac"] = float64(t.stale) / float64(t.attempted)
	o.metrics["dirserve.repins"] = float64(t.repins)
	o.metrics["dirserve.cold_hit_frac"] = float64(t.coldHits) / float64(t.ids)
	o.metrics["directory.entries"] = float64(t.stats.Entries)
	o.metrics["directory.hot"] = float64(t.stats.Hot)
	o.metrics["directory.cold"] = float64(t.stats.Cold)
	o.metrics["directory.pages"] = float64(t.stats.Pages)
	o.metrics["directory.promoted"] = float64(t.stats.Promoted)
	o.metrics["directory.epochs"] = float64(t.stats.Epoch)

	// What a lookup costs without the wire: the same key stream against the
	// final snapshot in process. Wire cost per ID is rtt/256 minus this.
	start := time.Now()
	found := 0
	for i := 0; i < env.size.probeRepeats; i++ {
		for _, v := range sched.keys {
			if _, ok := t.view.Lookup(v); ok {
				found++
			}
		}
	}
	end := time.Now()
	n := env.size.probeRepeats * len(sched.keys)
	if found != n {
		o.failf("in-process lookups resolved %d of %d keys", found, n)
	}
	env.rec.add(-1, "directory.lookup", "", start, end, int64(n))
	o.metrics["directory.lookup_ns"] = float64(end.Sub(start).Nanoseconds()) / float64(n)
	return o, nil
}
