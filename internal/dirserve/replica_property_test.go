package dirserve

import (
	"math/rand"
	"sync"
	"testing"

	"ethpart/internal/directory"
	"ethpart/internal/graph"
)

// genCommitStream produces a deterministic mixed commit stream (placements,
// moves, retirements, promotions, resizes) and applies it to a fresh oracle
// directory, returning the stream and the oracle's final view.
func genCommitStream(seed int64, n int) ([]shipment, *directory.Directory) {
	rng := rand.New(rand.NewSource(seed))
	oracle := directory.New(directory.Config{})
	shards := 2
	var retired []graph.VertexID
	stream := make([]shipment, 0, n)
	for e := 1; e <= n; e++ {
		var b directory.Batch
		wave := rng.Intn(4) == 0
		if e == 1 || rng.Intn(16) == 0 {
			shards += rng.Intn(3)
			b.Shards = shards
		}
		for i, k := 0, rng.Intn(6); i < k; i++ {
			b.Set = append(b.Set, directory.Move{
				V: graph.VertexID(rng.Intn(256)), To: rng.Intn(shards),
			})
		}
		if rng.Intn(3) == 0 {
			v := graph.VertexID(rng.Intn(256))
			if sh, ok := oracle.Current().Lookup(v); ok {
				_ = sh
				b.Retire = append(b.Retire, v)
				retired = append(retired, v)
			}
		}
		if len(retired) > 0 && rng.Intn(4) == 0 {
			b.Promote = append(b.Promote, retired[rng.Intn(len(retired))])
		}
		ep, err := oracle.CommitBatch(b, wave)
		if err != nil {
			panic(err)
		}
		if ep != uint64(e) {
			panic("oracle epoch drift")
		}
		stream = append(stream, shipment{epoch: ep, b: b, wave: wave})
	}
	return stream, oracle
}

// TestReplicaIdempotentUnderDupReorder is the acceptance property test:
// at-least-once, out-of-order delivery of a commit stream — duplicates
// injected, order shuffled within a bounded window, several concurrent
// delivery goroutines — must leave the replica byte-identical to an oracle
// that applied the stream once, in order. Run under -race.
func TestReplicaIdempotentUnderDupReorder(t *testing.T) {
	const epochs = 200
	for seed := int64(1); seed <= 4; seed++ {
		stream, oracle := genCommitStream(seed, epochs)

		rdir := directory.New(directory.Config{})
		rp := NewReplica(rdir)

		// Build a delivery schedule: every shipment at least once, ~30%
		// duplicated (some twice more), then shuffled within a window of 32
		// so reordering stays bounded but crosses many epochs.
		rng := rand.New(rand.NewSource(seed * 7919))
		deliveries := make([]shipment, 0, 2*epochs)
		deliveries = append(deliveries, stream...)
		for _, sh := range stream {
			for rng.Intn(10) < 3 {
				deliveries = append(deliveries, sh)
			}
		}
		for i := range deliveries {
			j := i + rng.Intn(32)
			if j >= len(deliveries) {
				j = len(deliveries) - 1
			}
			deliveries[i], deliveries[j] = deliveries[j], deliveries[i]
		}
		reordered := false
		for i := 1; i < len(deliveries); i++ {
			reordered = reordered || deliveries[i].epoch < deliveries[i-1].epoch
		}
		if len(deliveries) == epochs || !reordered {
			t.Fatalf("seed %d: schedule has %d duplicates, reordered=%v — test is vacuous",
				seed, len(deliveries)-epochs, reordered)
		}

		// Concurrent delivery: 4 goroutines pull from a shared channel, like
		// several fan-out connections feeding one replica.
		ch := make(chan shipment, len(deliveries))
		for _, sh := range deliveries {
			ch <- sh
		}
		close(ch)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for sh := range ch {
					if _, err := rp.Apply(sh.epoch, sh.b, sh.wave); err != nil {
						t.Errorf("seed %d: apply epoch %d: %v", seed, sh.epoch, err)
						return
					}
				}
			}()
		}
		wg.Wait()

		// Every shipment applied once: the watermark is the stream's last
		// epoch, and a late duplicate of any of them changes nothing.
		if rp.Applied() != epochs {
			t.Fatalf("seed %d: applied watermark %d, want %d", seed, rp.Applied(), epochs)
		}
		for _, sh := range stream {
			if w, err := rp.Apply(sh.epoch, sh.b, sh.wave); err != nil || w != epochs {
				t.Fatalf("seed %d: late duplicate of epoch %d: watermark %d, err %v", seed, sh.epoch, w, err)
			}
		}

		// Byte-identical convergence: same epoch, same shard count, same
		// entry set with identical tiers in both directions.
		want, got := oracle.Current(), rdir.Current()
		ws, gs := oracle.Stats(), rdir.Stats()
		if gs.Epoch != ws.Epoch || gs.Entries != ws.Entries || gs.Cold != ws.Cold {
			t.Errorf("seed %d: epoch %d, %d entries (%d cold), want %d, %d (%d cold)",
				seed, gs.Epoch, gs.Entries, gs.Cold, ws.Epoch, ws.Entries, ws.Cold)
		}
		mismatches := 0
		want.Each(func(v graph.VertexID, shard int) bool {
			wsh, wcold, _ := want.LookupTier(v)
			gsh, gcold, ok := got.LookupTier(v)
			if !ok || gsh != wsh || gcold != wcold {
				t.Errorf("seed %d: vertex %d = (%d,cold=%v,ok=%v), want (%d,cold=%v)",
					seed, v, gsh, gcold, ok, wsh, wcold)
				mismatches++
			}
			return mismatches < 10
		})
		got.Each(func(v graph.VertexID, shard int) bool {
			if _, ok := want.Lookup(v); !ok {
				t.Errorf("seed %d: replica has extra vertex %d", seed, v)
				mismatches++
			}
			return mismatches < 10
		})

		if gs.WaveFlips != ws.WaveFlips {
			t.Errorf("seed %d: replica flips %d/%d wave, want %d/%d — dups leaked through",
				seed, gs.Epoch, gs.WaveFlips, ws.Epoch, ws.WaveFlips)
		}

		// The shard count is the stream's last declared one on both: each
		// refuses a placement at that count and takes one just below it.
		shards := 0
		for _, sh := range stream {
			if sh.b.Shards > 0 {
				shards = sh.b.Shards
			}
		}
		for name, d := range map[string]*directory.Directory{"oracle": oracle, "replica": rdir} {
			if _, err := d.CommitBatch(directory.Batch{Set: []directory.Move{{V: 1000, To: shards}}}, false); err == nil {
				t.Errorf("seed %d: %s accepted shard %d past the stream's %d shards", seed, name, shards, shards)
			}
			if _, err := d.CommitBatch(directory.Batch{Set: []directory.Move{{V: 1000, To: shards - 1}}}, false); err != nil {
				t.Errorf("seed %d: %s refused shard %d of %d: %v", seed, name, shards-1, shards, err)
			}
		}
	}
}
