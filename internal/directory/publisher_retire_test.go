package directory_test

// Retirement-flow coverage for the publisher path (external test package:
// it drives a real sim.Simulator, which the directory package itself must
// not depend on).

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ethpart/internal/directory"
	"ethpart/internal/graph"
	"ethpart/internal/sim"
	"ethpart/internal/workload"
)

// TestPublisherRetirementFlow drives a decayed sim replay through a
// publisher-fed directory and pins the retirement contract:
//
//   - a sim.Config.OnRetire event is buffered, not applied: the vertex stays
//     hot until the publisher's next flush commits;
//   - on the next commit the entry is in the cold tier, same shard;
//   - a concurrent PinEpoch reader (run under -race) keeps a consistent
//     pinned view throughout: entries never vanish or change shard within
//     one pinned snapshot while retirements commit underneath it.
func TestPublisherRetirementFlow(t *testing.T) {
	eras := []workload.Era{{
		Name:          "mini",
		Start:         time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC),
		End:           time.Date(2017, 1, 15, 0, 0, 0, 0, time.UTC),
		TxPerDayStart: 8_000, TxPerDayEnd: 20_000, Kind: workload.GrowthExponential,
		NewAccountFrac: 0.25, DeploysPerDay: 8,
		Mix: workload.TxMix{Transfer: 0.55, Token: 0.18, Wallet: 0.1, Crowdsale: 0.07, Game: 0.05, Airdrop: 0.05},
	}}
	gt, err := sim.Generate(workload.Config{
		Seed: 42, Scale: 0.05, Eras: eras, BlockInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}

	dir := directory.New(directory.Config{})
	pub := directory.NewPublisher(dir)

	type retirement struct {
		v     graph.VertexID
		shard int
		// wasCold: the vertex was already in the cold tier when the event
		// fired — a re-retirement of a reappeared-but-never-replaced vertex.
		// Those stay cold; only hot→cold transitions assert "not cold until
		// the next commit".
		wasCold bool
		// epoch at event time: "buffered, not applied" is only observable
		// while no commit has intervened — a repartition wave in the same
		// Process call is itself a commit and may land the retirement.
		epoch uint64
	}
	var pending []retirement // OnRetire events since the last flush
	totalRetired := 0

	cfg := sim.Config{
		Method: sim.MethodTRMetis, K: 4,
		Window:            4 * time.Hour,
		MinRepartitionGap: 24 * time.Hour,
		TriggerWindows:    2,
		DecayHalfLife:     12 * time.Hour,
		Horizon:           24 * time.Hour,
		OnPlace:           pub.OnPlace,
		OnMove:            pub.OnMove,
		OnRetire: func(v graph.VertexID, shard int) {
			pub.OnRetire(v, shard)
			_, cold, ok := dir.Current().LookupTier(v)
			pending = append(pending, retirement{v, shard, ok && cold, dir.Epoch()})
			totalRetired++
		},
	}
	cfg.OnRepartition = func(_ time.Time, moves int) {
		if err := pub.OnRepartition(moves); err != nil {
			t.Error(err)
		}
	}
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent pinned reader: pin the newest epoch, walk the snapshot,
	// then re-verify a prefix — within one pinned snapshot nothing may
	// vanish or move while the writer commits retirements underneath.
	var stop atomic.Bool
	var readerErr atomic.Pointer[string]
	fail := func(msg string) { readerErr.CompareAndSwap(nil, &msg) }
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Loop until stopped AND at least one pin landed: on a single-CPU
		// box the replay can finish before this goroutine is ever
		// scheduled, and once the writer quiesces the first pin always
		// succeeds — so the non-vacuity check below never flakes.
		pins := 0
		for pins == 0 || !stop.Load() {
			e := dir.Epoch()
			snap, err := dir.PinEpoch(e)
			if err != nil {
				// The writer can push e out of the bounded journal between
				// the Epoch read and the pin — a benign race; re-pin.
				if errors.Is(err, directory.ErrEpochEvicted) {
					continue
				}
				fail("pin of current epoch failed: " + err.Error())
				return
			}
			pins++
			type ent struct {
				v  graph.VertexID
				sh int
			}
			var walked []ent
			snap.Each(func(v graph.VertexID, shard int) bool {
				walked = append(walked, ent{v, shard})
				return len(walked) < 512
			})
			for _, w := range walked {
				if sh, ok := snap.Lookup(w.v); !ok || sh != w.sh {
					fail("pinned snapshot mutated under reader")
					return
				}
			}
		}
		if pins == 0 {
			fail("reader never pinned")
		}
	}()

	checked := 0
	for _, rec := range gt.Records {
		if err := s.Process(rec); err != nil {
			t.Fatal(err)
		}
		if len(pending) > 0 {
			// Buffered, not applied: retirement is invisible until the next
			// commit. (OnRetire fires in the decay sweep; no flush has run.)
			before := dir.Current()
			for _, r := range pending {
				if r.wasCold || before.Epoch() != r.epoch {
					continue // re-retirement, or a wave already committed it
				}
				if _, cold, ok := before.LookupTier(r.v); ok && cold {
					t.Fatalf("vertex %d cold before the retiring flush", r.v)
				}
			}
			if err := pub.Flush(); err != nil {
				t.Fatal(err)
			}
			after := dir.Current()
			for _, r := range pending {
				sh, cold, ok := after.LookupTier(r.v)
				if !ok || !cold || sh != r.shard {
					t.Fatalf("vertex %d after retiring flush: (%d,cold=%v,ok=%v), want (%d,true,true)",
						r.v, sh, cold, ok, r.shard)
				}
				checked++
			}
			pending = pending[:0]
		} else if err := pub.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	s.Finish()

	if msg := readerErr.Load(); msg != nil {
		t.Fatal(*msg)
	}
	if totalRetired == 0 || checked == 0 {
		t.Fatalf("vacuous run: %d retirements fired, %d checked — decay never retired", totalRetired, checked)
	}
	if st := dir.Stats(); st.Cold == 0 {
		t.Errorf("directory counters missed the spill: %+v", st)
	}
}
