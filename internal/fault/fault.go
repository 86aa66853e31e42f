// Package fault is a deterministic, seeded fault-injection plane for the
// sharded serving path. A Schedule describes which faults to inject —
// shard crash-stops at block boundaries, lossy/duplicating/delaying
// receipt delivery, stalled or failing directory commits — and an
// Injector turns it into reproducible per-event decisions: every roll is
// a pure hash of (seed, event identity, attempt), so two runs with the
// same schedule inject byte-identical faults regardless of goroutine
// scheduling. The plane never shares RNG state across threads; metrics
// are the only mutable state and they are atomics.
package fault

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// Crash is one scheduled shard crash-stop: shard Shard fails while
// executing block Block and is recovered from its durable log before the
// block's barrier completes.
type Crash struct {
	Block uint64
	Shard int
}

// Schedule is a declarative fault plan. The zero value injects nothing.
type Schedule struct {
	// Seed keys every probabilistic decision. Two runs with equal
	// schedules observe identical faults.
	Seed uint64

	// Crashes lists shard crash-stops by (block, shard). A shard crashes
	// at most once per block: New folds duplicate entries.
	Crashes []Crash

	// Shards, when positive, declares the shard count the schedule was
	// written against: New rejects crash entries naming shards outside
	// [0, Shards), catching plans aimed at lanes that don't exist at
	// arming time. Lanes removed *later* by a merge are a runtime
	// condition: the chain skips crashes aimed at them. Zero skips
	// the compile-time check (legacy schedules that never resize).
	Shards int

	// DropProb, DelayProb and DupProb are per-delivery-attempt
	// probabilities for losing, delaying and duplicating a receipt on
	// the barrier exchange.
	DropProb  float64
	DelayProb float64
	DupProb   float64

	// ShuffleDeliveries reorders each destination inbox's arrivals
	// within a barrier (seeded), exercising order-independence of
	// settlement. Off, arrivals keep canonical order.
	ShuffleDeliveries bool

	// WaveStallFlushes stalls each repartition wave commit for that
	// many subsequent directory flushes before it lands (readers
	// degrade to journaled snapshots meanwhile). CommitFailEvery makes
	// every Nth commit fail transiently commitFailCount times before
	// succeeding, exercising commit retry.
	WaveStallFlushes int
	CommitFailEvery  int
}

// The plane's fixed bounds. maxDelay bounds injected transport delay in
// blocks. retryAfter is the base redelivery backoff in blocks after a drop,
// doubled per attempt and capped at 8 so bounded drain loops still
// terminate. maxAttempts bounds drops per receipt: attempt maxAttempts
// always delivers, making redelivery at-least-once rather than
// probabilistic. commitFailCount is how many times a failing directory
// commit fails before it succeeds.
const (
	maxDelay               = 4
	retryAfter      uint64 = 2
	maxAttempts            = 6
	commitFailCount        = 2
)

// PeriodicCrashes schedules a crash every `every` blocks up to maxBlock,
// rotating the victim across k shards — the standard crash-during-wave
// workload. A zero period or a shard count below one schedules nothing.
func PeriodicCrashes(every, maxBlock uint64, k int) []Crash {
	if every == 0 || k < 1 {
		return nil
	}
	var cs []Crash
	i := 0
	for b := every; b <= maxBlock; b += every {
		cs = append(cs, Crash{Block: b, Shard: i % k})
		i++
	}
	return cs
}

// Outcome is the injector's decision for one delivery attempt of one
// receipt. Drop and the others are mutually exclusive with Drop: a
// dropped attempt is retried after Backoff blocks; a delivered attempt
// may additionally be delayed by Delay blocks and/or spawn one
// duplicate.
type Outcome struct {
	Drop      bool
	Backoff   uint64 // blocks until redelivery when dropped
	Delay     uint64 // extra transport blocks when delivered
	Duplicate bool   // also enqueue a second copy of the receipt
}

// Injector turns a Schedule into deterministic per-event decisions.
// All methods are safe for concurrent use: decisions are pure functions
// of (seed, identity, attempt) and metrics are atomic.
type Injector struct {
	sched   Schedule
	crashes map[uint64][]int // block -> shards, sorted

	// Metrics accumulates what was actually injected and recovered.
	Metrics Metrics
}

// New validates a schedule and builds its injector.
func New(s Schedule) (*Injector, error) {
	for _, p := range []struct {
		name string
		v    float64
	}{{"DropProb", s.DropProb}, {"DelayProb", s.DelayProb}, {"DupProb", s.DupProb}} {
		if p.v < 0 || p.v > 1 {
			return nil, fmt.Errorf("fault: %s %v outside [0,1]", p.name, p.v)
		}
	}
	if s.Shards < 0 {
		return nil, fmt.Errorf("fault: negative shard count %d", s.Shards)
	}
	for _, c := range s.Crashes {
		if c.Shard < 0 {
			return nil, fmt.Errorf("fault: crash at block %d names negative shard %d", c.Block, c.Shard)
		}
		if s.Shards > 0 && c.Shard >= s.Shards {
			return nil, fmt.Errorf("fault: crash at block %d names shard %d, schedule declares %d shards",
				c.Block, c.Shard, s.Shards)
		}
	}
	if s.WaveStallFlushes < 0 || s.CommitFailEvery < 0 {
		return nil, fmt.Errorf("fault: negative stall/fail cadence")
	}
	inj := &Injector{sched: s, crashes: map[uint64][]int{}}
	for _, c := range s.Crashes {
		inj.crashes[c.Block] = append(inj.crashes[c.Block], c.Shard)
	}
	for b, shards := range inj.crashes {
		slices.Sort(shards)
		inj.crashes[b] = slices.Compact(shards)
	}
	return inj, nil
}

// HasCrashes reports whether any shard crash is scheduled.
func (inj *Injector) HasCrashes() bool { return len(inj.crashes) > 0 }

// HasMessageFaults reports whether the delivery plane can deviate from
// perfect in-order single delivery.
func (inj *Injector) HasMessageFaults() bool {
	s := inj.sched
	return s.DropProb > 0 || s.DelayProb > 0 || s.DupProb > 0 || s.ShuffleDeliveries
}

// CrashedShards returns the distinct shards scheduled to crash while
// executing block b, in ascending order.
func (inj *Injector) CrashedShards(b uint64) []int { return inj.crashes[b] }

// Delivery decides the fate of delivery attempt `attempt` (1-based) of
// the receipt with identity id.
func (inj *Injector) Delivery(id uint64, attempt int) Outcome {
	s := inj.sched
	var o Outcome
	if attempt < maxAttempts && roll(s.Seed, id, uint64(attempt), saltDrop) < s.DropProb {
		o.Drop = true
		o.Backoff = min(retryAfter<<uint(attempt-1), 8)
		return o
	}
	if roll(s.Seed, id, uint64(attempt), saltDelay) < s.DelayProb {
		o.Delay = 1 + hash(s.Seed, id, uint64(attempt), saltDelayLen)%maxDelay
	}
	if roll(s.Seed, id, uint64(attempt), saltDup) < s.DupProb {
		o.Duplicate = true
	}
	return o
}

// ShuffleSeed keys the per-(destination, block) arrival shuffle.
func (inj *Injector) ShuffleSeed(dst int, block uint64) uint64 {
	return hash(inj.sched.Seed, uint64(dst), block, saltShuffle)
}

// ShuffleDeliveries reports whether barrier arrivals should be
// reordered.
func (inj *Injector) ShuffleDeliveries() bool { return inj.sched.ShuffleDeliveries }

// CommitFails reports whether commit attempt `attempt` (1-based) of the
// seq-th directory commit should fail transiently.
func (inj *Injector) CommitFails(seq uint64, attempt int) bool {
	s := inj.sched
	if s.CommitFailEvery == 0 || seq == 0 || seq%uint64(s.CommitFailEvery) != 0 {
		return false
	}
	return attempt <= commitFailCount
}

// Hash salts keep the drop/delay/dup/shuffle decision streams
// independent: the same (id, attempt) must not correlate across fault
// kinds.
const (
	saltDrop = iota + 1
	saltDelay
	saltDelayLen
	saltDup
	saltShuffle
)

// hash is splitmix64 over the decision identity.
func hash(seed, a, b, salt uint64) uint64 {
	x := seed ^ mix(a) ^ mix(b+0x632be59bd9b4e019) ^ mix(salt*0x9e3779b97f4a7c15)
	return mix(x)
}

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// roll maps the decision hash onto [0,1).
func roll(seed, a, b, salt uint64) float64 {
	return float64(hash(seed, a, b, salt)>>11) / float64(1<<53)
}

// Metrics counts injected faults and the recovery work they caused.
// All fields are updated atomically; whoever armed the injector reads them
// with Load.
type Metrics struct {
	// Crash/recovery plane.
	Crashes       atomic.Uint64
	ItemsReplayed atomic.Uint64 // transactions + receipts re-applied
	RecoveryNanos atomic.Uint64

	// Message plane.
	Dropped        atomic.Uint64
	Delayed        atomic.Uint64
	Duplicated     atomic.Uint64
	DupsSuppressed atomic.Uint64

	// Directory plane.
	WaveStalls  atomic.Uint64
	StaleBlocks atomic.Uint64
	RePins      atomic.Uint64
	MaxEpochLag atomic.Uint64
	TornCommits atomic.Uint64
}

// MaxLag records an observed reader staleness, keeping the maximum.
func (m *Metrics) MaxLag(lag uint64) {
	for {
		cur := m.MaxEpochLag.Load()
		if lag <= cur || m.MaxEpochLag.CompareAndSwap(cur, lag) {
			return
		}
	}
}
