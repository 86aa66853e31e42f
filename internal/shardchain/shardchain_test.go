package shardchain

import (
	"bytes"
	"maps"
	"slices"
	"testing"

	"ethpart/internal/chain"
	"ethpart/internal/evm"
	"ethpart/internal/trace"
	"ethpart/internal/types"
	"ethpart/internal/workload"
)

// balanceOf reads addr's balance on its home shard.
func balanceOf(sc *ShardChain, addr types.Address) evm.Word {
	return sc.StateOf(sc.HomeOf(sc.ID(addr))).GetBalance(addr)
}

var (
	alice = types.AddressFromSeq(1)
	bob   = types.AddressFromSeq(2)
	carol = types.AddressFromSeq(3)
)

// newChain builds a chain whose assignment pins m's addresses to shards.
// m's addresses are registered first, in address order, so the assignment
// knows them however the chain first meets them; m is read live, so a test
// may re-pin an address it holds.
func newChain(cfg Config, alloc map[types.Address]evm.Word, m map[types.Address]int) (*ShardChain, error) {
	reg := trace.NewRegistry()
	return New(cfg, reg, alloc, fixedAssign(reg, m))
}

// fixedAssign registers m's addresses in reg and returns the assignment by
// ID that pins them to their shards.
func fixedAssign(reg *trace.Registry, m map[types.Address]int) func(uint64) (int, bool) {
	for _, a := range slices.SortedFunc(maps.Keys(m), func(a, b types.Address) int { return bytes.Compare(a[:], b[:]) }) {
		reg.ID(a)
	}
	return func(id uint64) (int, bool) {
		a, _ := reg.Address(id)
		s, ok := m[a]
		return s, ok
	}
}

func newSC(t *testing.T, model Model, assign map[types.Address]int) *ShardChain {
	t.Helper()
	sc, err := newChain(Config{K: 2, Model: model},
		map[types.Address]evm.Word{
			alice: evm.WordFromUint64(1 << 40),
			bob:   evm.WordFromUint64(1 << 40),
		}, assign)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func transfer(nonce uint64, from, to types.Address, value uint64) *chain.Transaction {
	return &chain.Transaction{
		Nonce: nonce, From: from, To: &to,
		Value: evm.WordFromUint64(value), GasLimit: 100_000, GasPrice: 1,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{K: 0, Model: ModelReceipts}, nil, nil, nil); err == nil {
		t.Error("k=0 must be rejected")
	}
	if _, err := New(Config{K: 2, Model: Model(9)}, nil, nil, nil); err == nil {
		t.Error("bad model must be rejected")
	}
}

func TestModelString(t *testing.T) {
	if ModelReceipts.String() != "receipts" || ModelMigration.String() != "migration" {
		t.Error("model names wrong")
	}
}

func TestLocalTransferStaysLocal(t *testing.T) {
	sc := newSC(t, ModelReceipts, map[types.Address]int{alice: 0, bob: 0})
	rs := sc.Step([]*chain.Transaction{transfer(0, alice, bob, 500)})
	if !rs[0].Success {
		t.Fatalf("local transfer failed: %v", rs[0].Err)
	}
	st := sc.Stats()
	if st.LocalTxs != 1 || st.CrossTxs != 0 || st.Messages != 0 {
		t.Errorf("stats = %+v", st)
	}
	if got := balanceOf(sc, bob); got.Uint64() != (1<<40)+500 {
		t.Errorf("bob balance = %v", got)
	}
}

func TestCrossTransferViaReceipts(t *testing.T) {
	sc := newSC(t, ModelReceipts, map[types.Address]int{alice: 0, bob: 1})
	rs := sc.Step([]*chain.Transaction{transfer(0, alice, bob, 500)})
	if !rs[0].Success {
		t.Fatalf("cross transfer rejected: %v", rs[0].Err)
	}
	// The value is debited immediately but credited only on settlement.
	if got := sc.StateOf(0).GetBalance(alice).Uint64(); got != (1<<40)-500 {
		t.Errorf("alice balance = %d", got)
	}
	if got := sc.StateOf(1).GetBalance(bob).Uint64(); got != 1<<40 {
		t.Errorf("bob credited too early: %d", got)
	}
	// Next block settles the receipt.
	sc.Step(nil)
	if got := sc.StateOf(1).GetBalance(bob).Uint64(); got != (1<<40)+500 {
		t.Errorf("bob balance after settlement = %d", got)
	}
	st := sc.Stats()
	if st.CrossTxs != 1 || st.Messages != 1 || st.ReceiptsSettled != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.SettlementBlocks != 1 {
		t.Errorf("settlement latency = %d blocks, want 1", st.SettlementBlocks)
	}
}

func TestCrossTransferViaMigration(t *testing.T) {
	sc := newSC(t, ModelMigration, map[types.Address]int{alice: 0, bob: 1})
	rs := sc.Step([]*chain.Transaction{transfer(0, alice, bob, 500)})
	if !rs[0].Success {
		t.Fatalf("cross transfer failed: %v", rs[0].Err)
	}
	// Migration moves alice to shard 1 and executes immediately.
	if sc.HomeOf(sc.ID(alice)) != 1 {
		t.Error("alice must have migrated to shard 1")
	}
	if got := sc.StateOf(1).GetBalance(bob).Uint64(); got != (1<<40)+500 {
		t.Errorf("bob balance = %d (settlement must be synchronous)", got)
	}
	if got := sc.StateOf(0).GetBalance(alice); !got.IsZero() {
		t.Errorf("alice left balance behind: %v", got)
	}
	st := sc.Stats()
	if st.Migrations != 1 || st.Messages != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestMigrationCarriesContractStorage(t *testing.T) {
	sc := newSC(t, ModelMigration, map[types.Address]int{alice: 0, bob: 1})
	// Put a contract with storage on shard 0 under alice's address space:
	// simulate by writing directly.
	contract := carol
	sc.setHome(sc.ID(contract), 0)
	st0 := sc.StateOf(0)
	st0.SetCode(contract, []byte{byte(evm.STOP)})
	st0.SetState(contract, evm.WordFromUint64(1), evm.WordFromUint64(11))
	st0.SetState(contract, evm.WordFromUint64(2), evm.WordFromUint64(22))
	st0.DiscardJournal()

	sc.migrate(sc.ID(contract), 0, 1)
	st1 := sc.StateOf(1)
	if got := st1.GetState(contract, evm.WordFromUint64(1)).Uint64(); got != 11 {
		t.Errorf("slot 1 = %d", got)
	}
	if got := st1.GetState(contract, evm.WordFromUint64(2)).Uint64(); got != 22 {
		t.Errorf("slot 2 = %d", got)
	}
	if len(st1.GetCode(contract)) == 0 {
		t.Error("code not migrated")
	}
	if sc.Stats().MigratedSlots != 2 {
		t.Errorf("MigratedSlots = %d, want 2", sc.Stats().MigratedSlots)
	}
}

func TestInternalCrossShardCallBecomesReceipt(t *testing.T) {
	// A wallet contract on shard 0 forwards value to carol on shard 1: the
	// internal CALL must divert into a receipt.
	sc := newSC(t, ModelReceipts, map[types.Address]int{alice: 0, carol: 1})
	wallet := deployOnShard(t, sc, 0, workload.WalletRuntime(), 1<<20)

	var data [32]byte
	cb := evm.WordFromBytes(carol[:]).Bytes32()
	copy(data[:], cb[:])
	tx := &chain.Transaction{
		Nonce: sc.StateOf(0).GetNonce(alice), From: alice, To: &wallet,
		Value: evm.WordFromUint64(777), Data: data[:],
		GasLimit: 500_000, GasPrice: 1,
	}
	rs := sc.Step([]*chain.Transaction{tx})
	if !rs[0].Success {
		t.Fatalf("wallet call failed: %v", rs[0].Err)
	}
	if sc.Stats().Messages != 1 {
		t.Fatalf("messages = %d, want 1 (internal call diverted)", sc.Stats().Messages)
	}
	// Carol is credited on settlement.
	sc.Step(nil)
	if got := sc.StateOf(1).GetBalance(carol).Uint64(); got != 777 {
		t.Errorf("carol balance = %d, want 777", got)
	}
}

func TestInternalCrossShardCallMigratesCalleeUnderMigration(t *testing.T) {
	// Regression: under ModelMigration an internal call leaving the shard
	// must migrate the callee to the executing shard and continue locally —
	// the package contract says "every remote participant's account state
	// is migrated" — not divert into a receipt (the old code armed the
	// receipts hook for both models).
	sc := newSC(t, ModelMigration, map[types.Address]int{alice: 0, carol: 1})
	// Carol has materialised state on shard 1.
	sc.StateOf(1).AddBalance(carol, evm.WordFromUint64(1000))
	sc.StateOf(1).DiscardJournal()
	wallet := deployOnShard(t, sc, 0, workload.WalletRuntime(), 1<<20)
	migrationsBefore := sc.Stats().Migrations

	var data [32]byte
	cb := evm.WordFromBytes(carol[:]).Bytes32()
	copy(data[:], cb[:])
	tx := &chain.Transaction{
		Nonce: sc.StateOf(0).GetNonce(alice), From: alice, To: &wallet,
		Value: evm.WordFromUint64(777), Data: data[:],
		GasLimit: 500_000, GasPrice: 1,
	}
	rs := sc.Step([]*chain.Transaction{tx})
	if !rs[0].Success {
		t.Fatalf("wallet call failed: %v", rs[0].Err)
	}
	st := sc.Stats()
	if st.Migrations <= migrationsBefore {
		t.Errorf("Migrations = %d, want > %d (remote callee must migrate)", st.Migrations, migrationsBefore)
	}
	if st.ReceiptsSettled != 0 || sc.PendingReceipts() != 0 {
		t.Errorf("migration model emitted receipts: settled=%d pending=%d",
			st.ReceiptsSettled, sc.PendingReceipts())
	}
	// The call completed synchronously on shard 0 with carol's full state.
	if home := sc.HomeOf(sc.ID(carol)); home != 0 {
		t.Errorf("carol home = %d, want 0", home)
	}
	if got := sc.StateOf(0).GetBalance(carol).Uint64(); got != 1000+777 {
		t.Errorf("carol balance = %d, want 1777", got)
	}
	if sc.StateOf(1).Exist(carol) {
		t.Error("source shard must not keep carol's state after the callee migration")
	}
}

func TestInternalCallToStatelessRemoteRehomesUnderMigration(t *testing.T) {
	// A remote callee that has no materialised state anywhere is re-homed
	// to the executing shard without a phantom migration (mirroring
	// MigrateAccount's refusal to move nothing).
	sc := newSC(t, ModelMigration, map[types.Address]int{alice: 0, carol: 1})
	wallet := deployOnShard(t, sc, 0, workload.WalletRuntime(), 1<<20)

	var data [32]byte
	cb := evm.WordFromBytes(carol[:]).Bytes32()
	copy(data[:], cb[:])
	tx := &chain.Transaction{
		Nonce: sc.StateOf(0).GetNonce(alice), From: alice, To: &wallet,
		Value: evm.WordFromUint64(42), Data: data[:],
		GasLimit: 500_000, GasPrice: 1,
	}
	if rs := sc.Step([]*chain.Transaction{tx}); !rs[0].Success {
		t.Fatalf("wallet call failed: %v", rs[0].Err)
	}
	if st := sc.Stats(); st.Migrations != 0 || st.Messages != 0 {
		t.Errorf("stateless callee moved state: %+v", st)
	}
	if home := sc.HomeOf(sc.ID(carol)); home != 0 {
		t.Errorf("carol home = %d, want 0 (re-homed to executing shard)", home)
	}
	if got := sc.StateOf(0).GetBalance(carol).Uint64(); got != 42 {
		t.Errorf("carol balance = %d, want 42", got)
	}
}

// deployOnShard deploys runtime on the given shard from alice (whose home
// must be that shard) and registers the contract's home.
func deployOnShard(t *testing.T, sc *ShardChain, shard int, runtime []byte, endow uint64) types.Address {
	t.Helper()
	nonce := sc.StateOf(shard).GetNonce(alice)
	tx := &chain.Transaction{
		Nonce: nonce, From: alice, Data: evm.DeployWrapper(runtime),
		Value: evm.WordFromUint64(endow), GasLimit: 5_000_000, GasPrice: 1,
	}
	rs := sc.Step([]*chain.Transaction{tx})
	if !rs[0].Success || rs[0].ContractAddress == nil {
		t.Fatalf("deploy failed: %+v", rs[0])
	}
	addr := *rs[0].ContractAddress
	sc.setHome(sc.ID(addr), shard)
	return addr
}

func TestReceiptAgainstContractTriggersCode(t *testing.T) {
	// A token contract on shard 1; a cross-shard receipt carrying transfer
	// calldata must execute the token's code on settlement.
	assign := map[types.Address]int{alice: 1, bob: 0}
	sc := newSC(t, ModelReceipts, assign)
	token := deployOnShard(t, sc, 1, workload.TokenRuntime(), 0)

	recipient := carol
	var data [64]byte
	rb := evm.WordFromBytes(recipient[:]).Bytes32()
	ab := evm.WordFromUint64(250).Bytes32()
	copy(data[0:32], rb[:])
	copy(data[32:64], ab[:])

	// bob (shard 0) calls the token (shard 1): receipt + deferred execute.
	tx := &chain.Transaction{
		Nonce: 0, From: bob, To: &token, Data: data[:],
		GasLimit: 300_000, GasPrice: 1,
	}
	rs := sc.Step([]*chain.Transaction{tx})
	if !rs[0].Success {
		t.Fatalf("cross token call rejected: %v", rs[0].Err)
	}
	if !sc.StateOf(1).GetState(token, evm.WordFromBytes(recipient[:])).IsZero() {
		t.Fatal("token executed before settlement")
	}
	sc.Step(nil)
	got := sc.StateOf(1).GetState(token, evm.WordFromBytes(recipient[:]))
	if got.Uint64() != 250 {
		t.Errorf("token balance after settlement = %v, want 250", got)
	}
}

func TestHashShardFallbackDeterministic(t *testing.T) {
	sc := newSC(t, ModelReceipts, nil)
	s1 := sc.HomeOf(sc.ID(carol))
	s2 := sc.HomeOf(sc.ID(carol))
	if s1 != s2 {
		t.Error("fallback placement must be sticky")
	}
	if s1 < 0 || s1 >= 2 {
		t.Errorf("shard %d out of range", s1)
	}
}

func TestCrossTxBadNonceFails(t *testing.T) {
	sc := newSC(t, ModelReceipts, map[types.Address]int{alice: 0, bob: 1})
	rs := sc.Step([]*chain.Transaction{transfer(7, alice, bob, 1)})
	if rs[0].Success {
		t.Fatal("bad nonce must fail")
	}
	if sc.Stats().Failed != 1 {
		t.Errorf("Failed = %d", sc.Stats().Failed)
	}
}

func TestValueConservationAcrossShards(t *testing.T) {
	// Total supply across shards is invariant under cross-shard traffic
	// (gas is priced but the miner address is the zero address whose
	// balance also counts).
	for _, model := range []Model{ModelReceipts, ModelMigration} {
		sc := newSC(t, model, map[types.Address]int{alice: 0, bob: 1})
		supply := func() uint64 {
			var total uint64
			for i := 0; i < 2; i++ {
				st := sc.StateOf(i)
				for _, a := range []types.Address{alice, bob, carol, {}} {
					total += st.GetBalance(a).Uint64()
				}
			}
			return total
		}
		before := supply()
		sc.Step([]*chain.Transaction{transfer(0, alice, bob, 12345)})
		sc.Step([]*chain.Transaction{transfer(0, bob, carol, 777)})
		sc.Step(nil)
		sc.Step(nil)
		if got := supply(); got != before {
			t.Errorf("%v: supply changed %d -> %d", model, before, got)
		}
	}
}
