//go:build !race

package shardchain

import (
	"fmt"
	"runtime"
	"testing"

	"ethpart/internal/chain"
	"ethpart/internal/evm"
	"ethpart/internal/fault"
	"ethpart/internal/types"
)

// stepAllocs measures a warm Step of 32 plain transfers on two shards, of
// which every crossEvery-th is cross-shard (0: none), and returns the
// allocations per Step together with how many of the 32 execute through the
// VM. A cross sender's recipient is picked, every block, on the shard the
// sender is not on: under ModelMigration the sender follows its transfer,
// so the pattern stays cross. Every other transaction names its accounts by
// handle, as opsim's do; the rest carry addresses only.
func stepAllocs(t *testing.T, model Model, crossEvery int) (allocs float64, executed int) {
	t.Helper()
	const n = 32
	assign := map[types.Address]int{}
	alloc := map[types.Address]evm.Word{}
	var senders [n]types.Address
	var recvOn [2]types.Address
	for i := range senders {
		senders[i] = types.AddressFromSeq(uint64(100 + i))
		assign[senders[i]] = 0
		alloc[senders[i]] = evm.WordFromUint64(1 << 40)
	}
	for s := range recvOn {
		recvOn[s] = types.AddressFromSeq(uint64(200 + s))
		assign[recvOn[s]] = s
		alloc[recvOn[s]] = evm.WordFromUint64(1)
	}
	sc, err := newChain(Config{K: 2, Model: model}, alloc, assign)
	if err != nil {
		t.Fatal(err)
	}
	txs := make([]chain.Transaction, n)
	tos := make([]types.Address, n)
	ptrs := make([]*chain.Transaction, n)
	for i := range txs {
		txs[i] = chain.Transaction{From: senders[i], To: &tos[i], Value: evm.WordFromUint64(1), GasLimit: 50_000}
		ptrs[i] = &txs[i]
	}
	block := func() {
		for i := range txs {
			home := sc.HomeOf(sc.ID(senders[i]))
			if crossEvery > 0 && i%crossEvery == 0 {
				tos[i] = recvOn[1-home]
			} else {
				tos[i] = recvOn[home]
			}
			if i%2 == 1 {
				txs[i].FromID = chain.HandleOf(sc.ID(senders[i]))
				txs[i].ToID = chain.HandleOf(sc.ID(tos[i]))
			}
		}
		for _, r := range sc.Step(ptrs) {
			if !r.Success {
				t.Fatalf("transfer failed: %v", r.Err)
			}
		}
		for i := range txs {
			txs[i].Nonce++
		}
	}
	for i := 0; i < 4; i++ {
		block() // warm: outboxes, inboxes, the effects buffer, the journals
	}
	before := sc.Stats()
	allocs = testing.AllocsPerRun(50, block)
	d := sc.Stats().Sub(before)
	return allocs, int(d.LocalTxs) / 51 // AllocsPerRun runs block once more to warm up
}

// TestAllocsStep: a warm Step allocates nothing, whatever the mix of local
// and cross-shard items. The receipts are the chain's, rewritten by every
// Step; each executed transaction records its call trace into its receipt
// slot's old trace array; there are no per-item effects, closures or
// transactions; and nothing is allocated per migration (a transplant
// re-parents the account).
func TestAllocsStep(t *testing.T) {
	for _, model := range []Model{ModelReceipts, ModelMigration} {
		for _, crossEvery := range []int{4, 0} {
			allocs, executed := stepAllocs(t, model, crossEvery)
			mix := "all local"
			if crossEvery > 0 {
				mix = fmt.Sprintf("1 in %d cross", crossEvery)
			}
			wantExecuted := 32
			if model == ModelReceipts && crossEvery > 0 {
				wantExecuted = 32 - 32/crossEvery // cross items debit and emit; the VM never runs
			}
			if executed != wantExecuted {
				t.Fatalf("%v, %s: %d transactions executed per Step, want %d", model, mix, executed, wantExecuted)
			}
			if allocs != 0 {
				t.Errorf("%v, %s: %v allocs per Step (%d executed), want 0", model, mix, allocs, executed)
			} else {
				t.Logf("%v, %s: %v allocs per Step (%d executed)", model, mix, allocs, executed)
			}
		}
	}
}

// crashStepBytes returns the mean heap bytes of a warm Step in which shard
// 0 crashes and recovers, with `funded` extra funded accounts on shard 0.
// Each block carries 16 transfers from senders on both shards, half of
// them cross-shard, so the victim has an inbox to restore and re-settle
// and a slice of transactions to replay.
func crashStepBytes(t *testing.T, funded int) uint64 {
	t.Helper()
	const (
		n      = 16
		warm   = 4
		blocks = 32
	)
	assign := map[types.Address]int{}
	alloc := map[types.Address]evm.Word{}
	for i := 0; i < funded; i++ {
		a := types.AddressFromSeq(uint64(10_000 + i))
		assign[a], alloc[a] = 0, evm.WordFromUint64(1)
	}
	var recvOn [2]types.Address
	for s := range recvOn {
		recvOn[s] = types.AddressFromSeq(uint64(200 + s))
		assign[recvOn[s]], alloc[recvOn[s]] = s, evm.WordFromUint64(1)
	}
	txs := make([]chain.Transaction, n)
	ptrs := make([]*chain.Transaction, n)
	for i := range txs {
		from := types.AddressFromSeq(uint64(100 + i))
		assign[from], alloc[from] = i%2, evm.WordFromUint64(1<<40)
		to := recvOn[i%2]
		if i%4 < 2 {
			to = recvOn[1-i%2]
		}
		txs[i] = chain.Transaction{From: from, To: &to, Value: evm.WordFromUint64(1), GasLimit: 50_000}
		ptrs[i] = &txs[i]
	}
	inj, err := fault.New(fault.Schedule{Seed: 1, Crashes: fault.PeriodicCrashes(1, warm+blocks, 1)})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := newChain(Config{K: 2, Model: ModelReceipts, Fault: inj}, alloc, assign)
	if err != nil {
		t.Fatal(err)
	}
	block := func() {
		for _, r := range sc.Step(ptrs) {
			if !r.Success {
				t.Fatalf("transfer failed: %v", r.Err)
			}
		}
		for i := range txs {
			txs[i].Nonce++
		}
	}
	for i := 0; i < warm; i++ {
		block()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < blocks; i++ {
		block()
	}
	runtime.ReadMemStats(&after)
	if crashes, items := inj.Metrics.Crashes.Load(), inj.Metrics.ItemsReplayed.Load(); crashes != warm+blocks || items == 0 {
		t.Fatalf("%d crashes (%d items replayed) in %d blocks; want one crash a block", crashes, items, warm+blocks)
	}
	return (after.TotalAlloc - before.TotalAlloc) / blocks
}

// TestAllocsCrashBlockIndependentOfStateSize: a crash costs what the block
// wrote, not what the shard holds. The victim holds its journal for the
// block and unwinds it, and only its inbox and applied-receipt journal are
// copied, so a Step in which shard 0 crashes allocates the same heap bytes
// with 50k funded accounts on that shard as with 1k: 4,515 B on a 2-vCPU
// linux/amd64 box with go1.24, none of it receipts or traces, which Step
// reuses. A deep copy of the victim's state would add about a hundred
// bytes per account.
func TestAllocsCrashBlockIndependentOfStateSize(t *testing.T) {
	small, large := crashStepBytes(t, 1_000), crashStepBytes(t, 50_000)
	t.Logf("crash Step: %d B with 1k funded accounts on the victim, %d B with 50k", small, large)
	if large > small+small/10 {
		t.Errorf("crash Step: %d B with 50k funded accounts on the victim, %d B with 1k; want within 10%%", large, small)
	}
}
