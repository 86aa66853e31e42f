package shardchain

import (
	"slices"
	"strings"
	"testing"

	"ethpart/internal/chain"
	"ethpart/internal/evm"
	"ethpart/internal/fault"
	"ethpart/internal/partition"
	"ethpart/internal/types"
)

// TestHashShardMatchesPartition is the satellite cross-check pinning the
// unified shard hash: the chain's fallback address hash must agree with
// partition.Hash's byte fold for every k, so the two can never drift back
// into separate implementations.
func TestHashShardMatchesPartition(t *testing.T) {
	var h partition.Hash
	for seq := uint64(1); seq < 2000; seq++ {
		addr := types.AddressFromSeq(seq)
		for _, k := range []int{1, 2, 3, 4, 8, 16} {
			if got, want := hashShard(addr, k), h.ShardOfBytes(addr[:], k); got != want {
				t.Fatalf("hashShard(%v, %d) = %d, partition says %d", addr, k, got, want)
			}
		}
	}
}

// TestAddShardsRoutesTraffic: grown lanes start empty and serve traffic as
// soon as the assignment answers with their indices — including cross-shard
// receipts addressed to a lane that did not exist at construction.
func TestAddShardsRoutesTraffic(t *testing.T) {
	assign := map[types.Address]int{alice: 0, bob: 1}
	sc := newSC(t, ModelReceipts, assign)

	if err := sc.AddShards(4); err != nil {
		t.Fatal(err)
	}
	if sc.K() != 4 {
		t.Fatalf("K after AddShards = %d, want 4", sc.K())
	}
	if err := sc.AddShards(3); err == nil {
		t.Error("AddShards below current K accepted")
	}

	// Move bob's home onto the brand-new lane 3, then pay him across it.
	if _, err := sc.MigrateAccount(sc.ID(bob), 3); err != nil {
		t.Fatal(err)
	}
	assign[bob] = 3
	rs := sc.Step([]*chain.Transaction{transfer(0, alice, bob, 700)})
	if !rs[0].Success {
		t.Fatalf("cross transfer to new lane rejected: %v", rs[0].Err)
	}
	sc.Step(nil) // settle the receipt on lane 3
	if got := balanceOf(sc, bob); got.Uint64() != (1<<40)+700 {
		t.Errorf("bob balance on new lane = %v", got)
	}
}

// TestRemoveShardsRequiresDrain: removal refuses while a dropped lane still
// homes an account or has unsettled traffic, and succeeds once both are
// migrated and settled.
func TestRemoveShardsRequiresDrain(t *testing.T) {
	assign := map[types.Address]int{alice: 0, bob: 1}
	sc := newSC(t, ModelReceipts, assign)

	err := sc.RemoveShards(1)
	if err == nil {
		t.Fatal("RemoveShards accepted with bob homed on shard 1")
	}
	if !strings.Contains(err.Error(), "homed on shard 1") {
		t.Errorf("drain error does not name the blocker: %v", err)
	}

	// An unsettled in-flight receipt addressed to the dropped lane also
	// blocks.
	rs := sc.Step([]*chain.Transaction{transfer(0, alice, bob, 10)})
	if !rs[0].Success {
		t.Fatal(rs[0].Err)
	}
	if err := sc.DrainShard(1); err == nil {
		t.Error("DrainShard(1) passed with an unsettled receipt in flight")
	}
	sc.Step(nil) // settle

	if _, err := sc.MigrateAccount(sc.ID(bob), 0); err != nil {
		t.Fatal(err)
	}
	assign[bob] = 0
	if err := sc.RemoveShards(1); err != nil {
		t.Fatalf("RemoveShards after drain: %v", err)
	}
	if sc.K() != 1 {
		t.Fatalf("K after RemoveShards = %d, want 1", sc.K())
	}
	// The merged chain still serves the moved account.
	rs = sc.Step([]*chain.Transaction{transfer(1, alice, bob, 5)})
	if !rs[0].Success {
		t.Fatalf("post-merge transfer failed: %v", rs[0].Err)
	}

	if err := sc.RemoveShards(0); err == nil {
		t.Error("RemoveShards(0) accepted")
	}
	if err := sc.RemoveShards(1); err == nil {
		t.Error("RemoveShards to current K accepted")
	}
}

// TestHomesOnDeterministic: HomesOn lists exactly the accounts homed on a
// lane, in ID order.
func TestHomesOnDeterministic(t *testing.T) {
	assign := map[types.Address]int{alice: 1, bob: 1, carol: 0}
	sc, err := newChain(Config{K: 2, Model: ModelReceipts},
		map[types.Address]evm.Word{
			alice: evm.WordFromUint64(1000),
			bob:   evm.WordFromUint64(1000),
			carol: evm.WordFromUint64(1000),
		}, assign)
	if err != nil {
		t.Fatal(err)
	}
	got := sc.HomesOn(1)
	if want := []uint64{sc.ID(alice), sc.ID(bob)}; !slices.Equal(got, want) && !slices.Equal(got, []uint64{want[1], want[0]}) {
		t.Fatalf("HomesOn(1) = %v, want alice and bob %v", got, want)
	}
	if !slices.IsSorted(got) {
		t.Errorf("HomesOn(1) not in ID order: %v", got)
	}
	if got := sc.HomesOn(0); !slices.Equal(got, []uint64{sc.ID(carol)}) {
		t.Fatalf("HomesOn(0) = %v, want carol", got)
	}
}

// TestCrashOnDecommissionedLaneSkipped: a crash entry naming a lane a merge
// removed mid-run is skipped instead of being applied to a lane that no
// longer exists. The schedule declares the original shard universe, so it
// compiles; the lane disappears at runtime.
func TestCrashOnDecommissionedLaneSkipped(t *testing.T) {
	inj := mustInjector(t, fault.Schedule{Shards: 2, Crashes: []fault.Crash{{Block: 2, Shard: 1}}})
	assign := map[types.Address]int{alice: 0, bob: 0}
	sc, err := newChain(Config{K: 2, Model: ModelReceipts, Fault: inj},
		map[types.Address]evm.Word{
			alice: evm.WordFromUint64(1 << 20),
			bob:   evm.WordFromUint64(1 << 20),
		}, assign)
	if err != nil {
		t.Fatal(err)
	}
	sc.Step([]*chain.Transaction{transfer(0, alice, bob, 5)}) // block 1
	if err := sc.RemoveShards(1); err != nil {
		t.Fatal(err)
	}
	if got := inj.CrashedShards(2); len(got) != 1 || got[0] != 1 {
		t.Fatalf("block 2 crashes shards %v, want [1]: the skip went untested", got)
	}
	rs := sc.Step([]*chain.Transaction{transfer(1, alice, bob, 5)}) // block 2: crash fires, lane gone
	if !rs[0].Success {
		t.Errorf("block 2's transfer failed: %v", rs[0].Err)
	}
	if n := inj.Metrics.Crashes.Load(); n != 0 {
		t.Errorf("Crashes = %d, want 0 (the only scheduled crash was skipped)", n)
	}
}
