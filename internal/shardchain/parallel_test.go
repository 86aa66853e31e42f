package shardchain

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ethpart/internal/chain"
	"ethpart/internal/evm"
	"ethpart/internal/types"
	"ethpart/internal/workload"
)

// enginePair is a serial reference chain and a parallel chain built from
// identical genesis, model and assignment.
type enginePair struct {
	serial, parallel *ShardChain
}

func newEnginePair(t *testing.T, k int, model Model, alloc map[types.Address]evm.Word, assign map[types.Address]int) *enginePair {
	t.Helper()
	mk := func(par bool) *ShardChain {
		sc, err := newChain(Config{K: k, Model: model, Parallel: par}, alloc, assign)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	return &enginePair{serial: mk(false), parallel: mk(true)}
}

// step drives both engines through the same block and requires identical
// receipts.
func (p *enginePair) step(t *testing.T, txs []*chain.Transaction) []*chain.Receipt {
	t.Helper()
	rs := p.serial.Step(txs)
	rp := p.parallel.Step(txs)
	if !reflect.DeepEqual(rs, rp) {
		t.Fatalf("receipts diverge at block %d:\nserial:   %+v\nparallel: %+v",
			p.serial.clock, dumpReceipts(rs), dumpReceipts(rp))
	}
	return rp
}

func dumpReceipts(rs []*chain.Receipt) string {
	out := ""
	for i, r := range rs {
		out += fmt.Sprintf("\n  [%d] %+v", i, r)
	}
	return out
}

// requireIdentical pins the full observable state: per-shard state roots,
// stats, pending receipts and the home map.
func (p *enginePair) requireIdentical(t *testing.T) {
	t.Helper()
	if p.serial.stats != p.parallel.stats {
		t.Fatalf("stats diverge:\nserial:   %+v\nparallel: %+v", p.serial.stats, p.parallel.stats)
	}
	for s := 0; s < p.serial.cfg.K; s++ {
		ss, ps := p.serial.StateOf(s), p.parallel.StateOf(s)
		// The root hashes every account, so equal roots mean equal account sets.
		if ss.Commit() != ps.Commit() {
			t.Fatalf("shard %d state roots diverge", s)
		}
	}
	if p.serial.PendingReceipts() != p.parallel.PendingReceipts() {
		t.Fatalf("pending receipts diverge: %d vs %d",
			p.serial.PendingReceipts(), p.parallel.PendingReceipts())
	}
	if d := homesDiffer(p.serial, p.parallel); d != "" {
		t.Fatalf("home tables diverge: %s", d)
	}
}

// homesDiffer compares two chains' registries and home tables entry by
// entry, or returns "" when they agree.
func homesDiffer(a, b *ShardChain) string {
	if a.ids.Len() != b.ids.Len() {
		return fmt.Sprintf("%d registered accounts vs %d", a.ids.Len(), b.ids.Len())
	}
	for id := uint64(0); id < uint64(a.ids.Len()); id++ {
		aa, _ := a.ids.Address(id)
		ba, _ := b.ids.Address(id)
		as, aok := a.Known(id)
		bs, bok := b.Known(id)
		if aa != ba || as != bs || aok != bok {
			return fmt.Sprintf("account %d: %v on %d (%v) vs %v on %d (%v)", id, aa, as, aok, ba, bs, bok)
		}
	}
	return ""
}

// TestPropertyParallelStepMatchesSerial is the engine-equivalence property
// test: for seeded workload slices mixing plain transfers, token calls
// (storage-writing contract activity, cross-shard continuations under
// receipts), wallet calls (internal calls that leave the shard — receipts
// under ModelReceipts, callee migrations under ModelMigration), mid-run
// contract creations and one block in which two workers meet the same
// never-seen address, a Parallel chain's receipts, per-shard states, stats
// and homes are byte-identical to the serial reference, for both models
// and k ∈ {2, 4, 8} — under ModelMigration because Parallel does not change
// the engine. Run under -race in CI, it also proves the fan-out is
// data-race free.
func TestPropertyParallelStepMatchesSerial(t *testing.T) {
	for _, model := range []Model{ModelReceipts, ModelMigration} {
		for _, k := range []int{2, 4, 8} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%v/k=%d/seed=%d", model, k, seed), func(t *testing.T) {
					runEngineEquivalence(t, model, k, seed)
				})
			}
		}
	}
}

func runEngineEquivalence(t *testing.T, model Model, k int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	const nAccounts = 12
	accounts := make([]types.Address, nAccounts)
	assignMap := map[types.Address]int{}
	alloc := map[types.Address]evm.Word{}
	for i := range accounts {
		accounts[i] = types.AddressFromSeq(uint64(i + 1))
		assignMap[accounts[i]] = i % k
		alloc[accounts[i]] = evm.WordFromUint64(1 << 40)
	}
	// The deployer of each contract is the account homed on the contract's
	// shard; pin the derived contract addresses in the assignment so both
	// engines home them where their code lives.
	deployer := accounts[0] // homed on shard 0
	wallet := types.ContractAddress(deployer, 0)
	token := types.ContractAddress(deployer, 1)
	wallet1 := types.ContractAddress(accounts[1], 0) // a second wallet, on shard 1
	assignMap[wallet] = 0
	assignMap[token] = 0
	assignMap[wallet1] = 1
	pair := newEnginePair(t, k, model, alloc, assignMap)

	nonces := map[types.Address]uint64{}
	deploy := func(deployer types.Address, runtime []byte) {
		tx := &chain.Transaction{
			Nonce: nonces[deployer], From: deployer,
			Data: evm.DeployWrapper(runtime), GasLimit: 5_000_000, GasPrice: 0,
		}
		nonces[deployer]++
		for _, r := range pair.step(t, []*chain.Transaction{tx}) {
			if !r.Success {
				t.Fatalf("deploy failed: %v", r.Err)
			}
		}
	}
	deploy(deployer, workload.WalletRuntime())
	deploy(deployer, workload.TokenRuntime())
	deploy(accounts[1], workload.WalletRuntime())

	word := func(b []byte) []byte {
		w := evm.WordFromBytes(b).Bytes32()
		return w[:]
	}
	for block := 0; block < 8; block++ {
		var txs []*chain.Transaction
		for i := 0; i < 10; i++ {
			from := accounts[rng.Intn(nAccounts)]
			tx := &chain.Transaction{
				Nonce: nonces[from], From: from,
				GasLimit: 500_000, GasPrice: uint64(rng.Intn(2)),
			}
			switch roll := rng.Intn(10); {
			case roll < 5: // plain transfer
				to := accounts[rng.Intn(nAccounts)]
				tx.To = &to
				tx.Value = evm.WordFromUint64(uint64(rng.Intn(1000)))
			case roll < 7: // token transfer (storage writes, continuations)
				to := token
				tx.To = &to
				recipient := accounts[rng.Intn(nAccounts)]
				tx.Data = append(word(recipient[:]), word([]byte{byte(rng.Intn(200))})...)
			case roll < 9: // wallet forward (internal call leaving the shard)
				to := wallet
				tx.To = &to
				tx.Value = evm.WordFromUint64(uint64(1 + rng.Intn(500)))
				recipient := accounts[rng.Intn(nAccounts)]
				tx.Data = word(recipient[:])
			default: // mid-run creation
				tx.Data = evm.DeployWrapper(workload.TokenRuntime())
				tx.GasLimit = 5_000_000
			}
			nonces[from]++
			txs = append(txs, tx)
		}
		pair.step(t, txs)
	}
	// Both wallets forward to one never-seen address in the same block, so
	// the workers of shards 0 and 1 each record its first-sight home; the
	// barrier must leave the home map exactly as the serial engine does.
	fresh := types.AddressFromSeq(1000)
	var forwards []*chain.Transaction
	for i, w := range []types.Address{wallet, wallet1} {
		from, to := accounts[i], w
		forwards = append(forwards, &chain.Transaction{
			Nonce: nonces[from], From: from, To: &to,
			Value: evm.WordFromUint64(7), Data: word(fresh[:]), GasLimit: 500_000,
		})
		nonces[from]++
	}
	pair.step(t, forwards)
	if _, known := pair.serial.Known(pair.serial.ID(fresh)); !known {
		t.Fatal("fixture: the forwards never resolved the fresh address")
	}
	// Drain in-flight receipts and compare the final states.
	for i := 0; i < 16 && pair.serial.PendingReceipts() > 0; i++ {
		pair.step(t, nil)
	}
	pair.requireIdentical(t)
}
