package shardchain

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ethpart/internal/chain"
	"ethpart/internal/evm"
	"ethpart/internal/fault"
	"ethpart/internal/trace"
	"ethpart/internal/types"
	"ethpart/internal/workload"
)

// chaosFixture is a pre-generated deterministic workload: the same blocks
// can be fed to any number of chains (fault-free reference, faulty run)
// so every difference in outcome is the fault plane's doing.
type chaosFixture struct {
	alloc  map[types.Address]evm.Word
	assign map[types.Address]int
	blocks [][]*chain.Transaction
}

// chaosWorkload generates nBlocks blocks over nAccounts accounts spread
// round-robin across k shards. With rich=true the mix includes token
// calls (storage-writing continuations) and wallet forwards alongside
// plain transfers, with the wallet and token contracts deployed in the
// first block. With rich=false only transfers and wallet forwards are
// generated — the shape whose outcomes are independent of settlement
// timing, required when injected delays shift credits across blocks.
// Funding is huge and values tiny so no transfer ever depends on a
// pending credit.
func chaosWorkload(seed int64, k, nBlocks int, rich bool) chaosFixture {
	rng := rand.New(rand.NewSource(seed))
	const nAccounts = 12
	fx := chaosFixture{
		alloc:  map[types.Address]evm.Word{},
		assign: map[types.Address]int{},
	}
	accounts := make([]types.Address, nAccounts)
	for i := range accounts {
		accounts[i] = types.AddressFromSeq(uint64(i + 1))
		fx.assign[accounts[i]] = i % k
		fx.alloc[accounts[i]] = evm.WordFromUint64(1 << 50)
	}
	deployer := accounts[0] // homed on shard 0
	wallet := types.ContractAddress(deployer, 0)
	token := types.ContractAddress(deployer, 1)
	fx.assign[wallet] = 0
	fx.assign[token] = 0

	nonces := map[types.Address]uint64{}
	deploy := func(runtime []byte) *chain.Transaction {
		tx := &chain.Transaction{
			Nonce: nonces[deployer], From: deployer,
			Data: evm.DeployWrapper(runtime), GasLimit: 5_000_000, GasPrice: 0,
		}
		nonces[deployer]++
		return tx
	}
	fx.blocks = append(fx.blocks, []*chain.Transaction{
		deploy(workload.WalletRuntime()), deploy(workload.TokenRuntime()),
	})

	word := func(b []byte) []byte {
		w := evm.WordFromBytes(b).Bytes32()
		return w[:]
	}
	for blk := 0; blk < nBlocks; blk++ {
		var txs []*chain.Transaction
		for i := 0; i < 10; i++ {
			from := accounts[rng.Intn(nAccounts)]
			tx := &chain.Transaction{
				Nonce: nonces[from], From: from,
				GasLimit: 500_000, GasPrice: uint64(rng.Intn(2)),
			}
			roll := rng.Intn(10)
			if !rich && roll >= 8 {
				roll = rng.Intn(8) // fold token calls back into the safe mix
			}
			switch {
			case roll < 6: // plain transfer
				to := accounts[rng.Intn(nAccounts)]
				tx.To = &to
				tx.Value = evm.WordFromUint64(uint64(rng.Intn(1000)))
			case roll < 8: // wallet forward (internal call leaving the shard)
				to := wallet
				tx.To = &to
				tx.Value = evm.WordFromUint64(uint64(1 + rng.Intn(500)))
				recipient := accounts[rng.Intn(nAccounts)]
				tx.Data = word(recipient[:])
			default: // token transfer (storage writes, continuations)
				to := token
				tx.To = &to
				recipient := accounts[rng.Intn(nAccounts)]
				tx.Data = append(word(recipient[:]), word([]byte{byte(rng.Intn(200))})...)
			}
			nonces[from]++
			txs = append(txs, tx)
		}
		fx.blocks = append(fx.blocks, txs)
	}
	return fx
}

func (fx chaosFixture) newChain(t testing.TB, k int, model Model, parallel bool, inj *fault.Injector) *ShardChain {
	t.Helper()
	sc, err := newChain(Config{
		K: k, Model: model, Parallel: parallel, Fault: inj,
	}, fx.alloc, fx.assign)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func mustInjector(t testing.TB, s fault.Schedule) *fault.Injector {
	t.Helper()
	inj, err := fault.New(s)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// requireConverged pins full observable equality between two chains:
// stats, per-shard state roots, pending receipts and the home map.
func requireConverged(t *testing.T, ref, got *ShardChain) {
	t.Helper()
	if ref.stats != got.stats {
		t.Fatalf("stats diverge:\nreference: %+v\nfaulty:    %+v", ref.stats, got.stats)
	}
	for s := 0; s < ref.cfg.K; s++ {
		rs, gs := ref.StateOf(s), got.StateOf(s)
		// The root hashes every account, so equal roots mean equal account sets.
		if rs.Commit() != gs.Commit() {
			t.Fatalf("shard %d state roots diverge", s)
		}
	}
	if ref.PendingReceipts() != got.PendingReceipts() {
		t.Fatalf("pending receipts diverge: %d vs %d", ref.PendingReceipts(), got.PendingReceipts())
	}
	if d := homesDiffer(ref, got); d != "" {
		t.Fatalf("home tables diverge: %s", d)
	}
}

// drain steps both chains on empty blocks until neither has in-flight
// receipts (the faulty chain's backoff chains can outlast the
// reference's settle horizon).
func drainBoth(t *testing.T, ref, got *ShardChain) {
	t.Helper()
	for i := 0; i < 300; i++ {
		if ref.PendingReceipts() == 0 && got.PendingReceipts() == 0 {
			return
		}
		ref.Step(nil)
		got.Step(nil)
	}
	t.Fatalf("receipts did not drain: reference %d, faulty %d pending",
		ref.PendingReceipts(), got.PendingReceipts())
}

// TestPropertyCrashRecoveryConvergence is the crash-stop property test: a
// chain whose shards crash every other block (rotating through all
// shards) and recover from the durable log converges byte-identical —
// per-block receipts, final stats, state roots and homes — to a fault-
// free reference, over a rich workload (transfers, token calls, wallet
// forwards), on both engines and k ∈ {2, 4, 8}. Crash-only schedules
// leave delivery timing untouched, so even per-step receipts must match.
func TestPropertyCrashRecoveryConvergence(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		for _, k := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("parallel=%v/k=%d", parallel, k), func(t *testing.T) {
				fx := chaosWorkload(int64(100+k), k, 10, true)
				inj := mustInjector(t, fault.Schedule{
					Seed:    7,
					Crashes: fault.PeriodicCrashes(2, uint64(len(fx.blocks))+40, k),
				})
				ref := fx.newChain(t, k, ModelReceipts, parallel, nil)
				got := fx.newChain(t, k, ModelReceipts, parallel, inj)
				for b, txs := range fx.blocks {
					rr, rg := ref.Step(txs), got.Step(txs)
					if !reflect.DeepEqual(rr, rg) {
						t.Fatalf("receipts diverge at block %d:\nreference: %s\nfaulty:    %s",
							b, dumpReceipts(rr), dumpReceipts(rg))
					}
				}
				drainBoth(t, ref, got)
				requireConverged(t, ref, got)
				if crashes, items := inj.Metrics.Crashes.Load(), inj.Metrics.ItemsReplayed.Load(); crashes == 0 || items == 0 {
					t.Fatalf("%d crashes, %d items replayed — the property was vacuous", crashes, items)
				}
			})
		}
	}
}

// TestPropertyDuplicateReorderNoOp pins idempotent settlement: with every
// receipt delivered twice (DupProb 1: a roll is below 1) and every barrier's
// arrivals shuffled, the run stays byte-identical to the fault-free
// reference — per-step receipts included, since a duplicate rides the next
// barrier and settles nothing — for both models and k ∈ {2, 4, 8}. Under ModelMigration the channel is empty
// (no receipts exist) and the property holds vacuously; it is included
// so the plane is exercised against both hooks.
func TestPropertyDuplicateReorderNoOp(t *testing.T) {
	for _, model := range []Model{ModelReceipts, ModelMigration} {
		for _, k := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%v/k=%d", model, k), func(t *testing.T) {
				fx := chaosWorkload(int64(200+k), k, 10, true)
				inj := mustInjector(t, fault.Schedule{
					Seed: 11, DupProb: 1, ShuffleDeliveries: true,
				})
				ref := fx.newChain(t, k, model, false, nil)
				got := fx.newChain(t, k, model, true, inj)
				for b, txs := range fx.blocks {
					rr, rg := ref.Step(txs), got.Step(txs)
					if !reflect.DeepEqual(rr, rg) {
						t.Fatalf("receipts diverge at block %d:\nreference: %s\nfaulty:    %s",
							b, dumpReceipts(rr), dumpReceipts(rg))
					}
				}
				drainBoth(t, ref, got)
				requireConverged(t, ref, got)
				if model == ModelReceipts {
					dups, suppressed := inj.Metrics.Duplicated.Load(), inj.Metrics.DupsSuppressed.Load()
					if dups == 0 {
						t.Fatal("no duplicates injected — the property was vacuous")
					}
					if suppressed != dups {
						t.Fatalf("suppressed %d of %d duplicates — a duplicate settled twice", suppressed, dups)
					}
				}
			})
		}
	}
}

// TestMessageFaultsConverge pins the lossy-channel invariants: under
// drops with retry/backoff, injected delays and duplicates (with
// shuffled deliveries), final stats, states and homes still converge to
// the fault-free reference once the channel drains. The workload is
// transfers and wallet forwards only — shapes whose outcomes are
// independent of when a credit lands — because cross-block delays
// legitimately reorder settlement against storage reads.
func TestMessageFaultsConverge(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		t.Run(fmt.Sprintf("parallel=%v", parallel), func(t *testing.T) {
			const k = 4
			fx := chaosWorkload(300, k, 12, false)
			inj := mustInjector(t, fault.Schedule{
				Seed:     13,
				DropProb: 0.3, DelayProb: 0.25, DupProb: 0.2,
				ShuffleDeliveries: true,
			})
			ref := fx.newChain(t, k, ModelReceipts, parallel, nil)
			got := fx.newChain(t, k, ModelReceipts, parallel, inj)
			for _, txs := range fx.blocks {
				ref.Step(txs)
				got.Step(txs)
			}
			drainBoth(t, ref, got)
			requireConverged(t, ref, got)
			m := &inj.Metrics
			dropped, delayed, dups := m.Dropped.Load(), m.Delayed.Load(), m.Duplicated.Load()
			if dropped == 0 || delayed == 0 || dups == 0 {
				t.Fatalf("fault mix not exercised: %d dropped, %d delayed, %d duplicated", dropped, delayed, dups)
			}
			if suppressed := m.DupsSuppressed.Load(); suppressed != dups {
				t.Fatalf("suppressed %d of %d duplicates", suppressed, dups)
			}
		})
	}
}

// TestDuplicateCrashEntryRecoversOnce pins the schedule's crash set: an
// entry named twice is one crash. Under a journal hold a second recovery
// would replay the shard's slice of the block twice, so the chain must
// recover once and still converge to the fault-free reference.
func TestDuplicateCrashEntryRecoversOnce(t *testing.T) {
	const k = 2
	fx := chaosWorkload(400, k, 6, true)
	inj := mustInjector(t, fault.Schedule{
		Seed:    1,
		Crashes: []fault.Crash{{Block: 3, Shard: 0}, {Block: 3, Shard: 0}},
	})
	ref := fx.newChain(t, k, ModelReceipts, false, nil)
	got := fx.newChain(t, k, ModelReceipts, false, inj)
	for b, txs := range fx.blocks {
		rr, rg := ref.Step(txs), got.Step(txs)
		if !reflect.DeepEqual(rr, rg) {
			t.Fatalf("receipts diverge at block %d:\nreference: %s\nfaulty:    %s",
				b, dumpReceipts(rr), dumpReceipts(rg))
		}
	}
	drainBoth(t, ref, got)
	requireConverged(t, ref, got)
	if crashes, items := inj.Metrics.Crashes.Load(), inj.Metrics.ItemsReplayed.Load(); crashes != 1 || items == 0 {
		t.Fatalf("%d crashes, %d items replayed; want one recovery that replayed its shard's work", crashes, items)
	}
}

// TestCrashScheduleRequiresReceiptsModel pins the constructor guard: a
// crash inside a migration-model block could tear a two-shard state
// move, so New must refuse the combination.
func TestCrashScheduleRequiresReceiptsModel(t *testing.T) {
	inj := mustInjector(t, fault.Schedule{Crashes: []fault.Crash{{Block: 3, Shard: 0}}})
	_, err := New(Config{K: 2, Model: ModelMigration, Fault: inj}, nil,
		nil, nil)
	if err == nil || !strings.Contains(err.Error(), "crash schedules require ModelReceipts") {
		t.Fatalf("New accepted crashes under ModelMigration: err=%v", err)
	}
	if _, err := New(Config{K: 2, Model: ModelReceipts, Fault: inj}, nil,
		nil, nil); err != nil {
		t.Fatalf("New rejected crashes under ModelReceipts: %v", err)
	}
}

// TestWaveItemPanicGainsShardContext pins the parallel engine's recover
// path: a panic escaping a wave item is rethrown wrapped with the shard
// and transaction index. The item is driven directly (not
// through Step) because sim.RunIndexed has no recovery — a worker panic
// would kill the process before the test could observe it.
func TestWaveItemPanicGainsShardContext(t *testing.T) {
	a := types.AddressFromSeq(1)
	bad := types.AddressFromSeq(2)
	reg := trace.NewRegistry()
	badID := reg.ID(bad) // registered, so the worker asks the assignment
	assign := func(id uint64) (int, bool) {
		if id == badID {
			panic("injected resolver failure")
		}
		return 0, true
	}
	sc, err := New(Config{K: 2, Model: ModelReceipts, Parallel: true}, reg,
		map[types.Address]evm.Word{a: evm.WordFromUint64(1 << 30)}, assign)
	if err != nil {
		t.Fatal(err)
	}
	// Deploy the wallet, then forward value through it to an address only
	// surfaced during EVM execution — the internal call's remote hook is
	// the one resolution a wave worker performs itself, and the panicking
	// resolver fires inside the worker's frame.
	wallet := types.ContractAddress(a, 0)
	deploy := &chain.Transaction{
		Nonce: 0, From: a, Data: evm.DeployWrapper(workload.WalletRuntime()),
		GasLimit: 5_000_000, GasPrice: 0,
	}
	for _, r := range sc.Step([]*chain.Transaction{deploy}) {
		if !r.Success {
			t.Fatalf("wallet deploy failed: %v", r.Err)
		}
	}
	badWord := evm.WordFromBytes(bad[:]).Bytes32()
	tx := &chain.Transaction{
		Nonce: 1, From: a, To: &wallet,
		Value: evm.WordFromUint64(5), Data: badWord[:], GasLimit: 500_000, GasPrice: 0,
	}
	receipts := []*chain.Receipt{new(chain.Receipt)} // Step hands the engines filled-in slots
	defer func() {
		wp, ok := recover().(workerPanic)
		if !ok {
			t.Fatalf("panic was not wrapped as workerPanic")
		}
		if wp.Shard != 0 || wp.Tx != 0 {
			t.Fatalf("workerPanic context = shard %d tx %d, want shard 0 tx 0", wp.Shard, wp.Tx)
		}
		if wp.Val != "injected resolver failure" {
			t.Fatalf("workerPanic lost the original value: %v", wp.Val)
		}
		if msg := wp.Error(); !strings.Contains(msg, "shard 0 (tx 0)") {
			t.Fatalf("workerPanic message lacks context: %q", msg)
		}
	}()
	var eff effects
	sc.runWaveItem(tx, waveItem{idx: 0, work: 0}, &homes{sc: sc}, &eff, receipts)
	t.Fatal("panic did not propagate out of runWaveItem")
}

// BenchmarkCrashRecovery measures the crash-stop recovery path: shard 0
// crashes every block, unwinds the journal it held for the block, and
// replays its inbox and transaction slice from the durable log. A block's
// cost is what the victim wrote in it, not what any shard holds.
func BenchmarkCrashRecovery(b *testing.B) {
	const k = 2
	fx := chaosWorkload(1, k, 0, false)
	inj := mustInjector(b, fault.Schedule{
		Seed:    1,
		Crashes: fault.PeriodicCrashes(1, uint64(b.N)+16, 1),
	})
	sc := fx.newChain(b, k, ModelReceipts, false, inj)
	sc.Step(fx.blocks[0]) // deploy block
	accounts := make([]types.Address, 12)
	for i := range accounts {
		accounts[i] = types.AddressFromSeq(uint64(i + 1))
	}
	nonces := map[types.Address]uint64{}
	for _, blk := range fx.blocks {
		for _, tx := range blk {
			nonces[tx.From]++
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var txs []*chain.Transaction
		for j := 0; j < 8; j++ {
			from := accounts[(i+j)%len(accounts)]
			to := accounts[(i+j+1)%len(accounts)]
			txs = append(txs, &chain.Transaction{
				Nonce: nonces[from], From: from, To: &to,
				Value: evm.WordFromUint64(1), GasLimit: 50_000, GasPrice: 0,
			})
			nonces[from]++
		}
		sc.Step(txs)
	}
	b.StopTimer()
	crashes := inj.Metrics.Crashes.Load()
	if crashes == 0 {
		b.Fatal("no crashes injected")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(crashes)/1e3, "us/recovery")
}
