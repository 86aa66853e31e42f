package chain

import (
	"errors"
	"fmt"
	"testing"

	"ethpart/internal/evm"
	"ethpart/internal/golden"
	"ethpart/internal/types"
)

var (
	sender = types.AddressFromSeq(1)
	recv   = types.AddressFromSeq(2)
	miner  = types.AddressFromSeq(999)
)

// fundedState returns a state with sender holding a large balance.
func fundedState() *State {
	return NewStateWithAlloc(map[types.Address]evm.Word{
		sender: evm.WordFromUint64(1_000_000_000_000),
	})
}

// blockGasLimit is the block gas limit the tests execute blocks under.
const blockGasLimit = 8_000_000

// apply executes tx on s into a fresh receipt, mined by miner.
func apply(s *State, tx *Transaction) (*Receipt, error) {
	r := new(Receipt)
	return r, ApplyTransactionInto(s, tx, miner, nil, r)
}

func transferTx(nonce uint64, value uint64) *Transaction {
	to := recv
	return &Transaction{
		Nonce: nonce, From: sender, To: &to,
		Value: evm.WordFromUint64(value), GasLimit: 50_000, GasPrice: 1,
	}
}

func TestApplyTransactionTransfer(t *testing.T) {
	s := fundedState()
	receipt, err := apply(s, transferTx(0, 500))
	if err != nil {
		t.Fatal(err)
	}
	if !receipt.Success {
		t.Fatalf("receipt failed: %v", receipt.Err)
	}
	if receipt.GasUsed != IntrinsicGas {
		t.Errorf("GasUsed = %d, want %d", receipt.GasUsed, IntrinsicGas)
	}
	if got := s.GetBalance(recv).Uint64(); got != 500 {
		t.Errorf("recipient balance = %d, want 500", got)
	}
	if got := s.GetBalance(miner).Uint64(); got != uint64(IntrinsicGas) {
		t.Errorf("miner fee = %d, want %d", got, IntrinsicGas)
	}
	if got := s.GetNonce(sender); got != 1 {
		t.Errorf("sender nonce = %d, want 1", got)
	}
	if len(receipt.Traces) != 1 || receipt.Traces[0].Kind != evm.KindTransaction {
		t.Errorf("traces = %+v", receipt.Traces)
	}
}

func TestApplyTransactionBadNonce(t *testing.T) {
	s := fundedState()
	_, err := apply(s, transferTx(5, 1))
	if !errors.Is(err, ErrNonceMismatch) {
		t.Fatalf("err = %v, want ErrNonceMismatch", err)
	}
}

func TestApplyTransactionInsufficientFunds(t *testing.T) {
	s := NewState()
	_, err := apply(s, transferTx(0, 1))
	if !errors.Is(err, ErrInsufficientFunds) {
		t.Fatalf("err = %v, want ErrInsufficientFunds", err)
	}
}

// TestGasCostDoesNotWrap: gasLimit*gasPrice is taken in 256 bits. In uint64
// 2^33 * 2^31 wraps to zero, which would pass the funds check for a sender
// holding 5 wei and then "refund" a balance into existence.
func TestGasCostDoesNotWrap(t *testing.T) {
	s := NewStateWithAlloc(map[types.Address]evm.Word{sender: evm.WordFromUint64(5)})
	to := recv
	tx := &Transaction{
		Nonce: 0, From: sender, To: &to,
		Value: evm.WordFromUint64(1), GasLimit: 1 << 33, GasPrice: 1 << 31,
	}
	root := s.Commit()
	_, err := apply(s, tx)
	if !errors.Is(err, ErrInsufficientFunds) {
		t.Fatalf("err = %v, want ErrInsufficientFunds", err)
	}
	if got := s.GetBalance(sender); got != evm.WordFromUint64(5) {
		t.Errorf("sender balance = %v, want 5", got)
	}
	if got := s.GetNonce(sender); got != 0 {
		t.Errorf("sender nonce = %d, want 0", got)
	}
	if s.Exist(recv) || s.Exist(miner) {
		t.Error("a rejected transaction touched the recipient or the miner")
	}
	if s.Commit() != root {
		t.Error("a rejected transaction changed the state root")
	}
}

func TestApplyTransactionIntrinsicGasTooLow(t *testing.T) {
	s := fundedState()
	to := recv
	tx := &Transaction{Nonce: 0, From: sender, To: &to, GasLimit: 100, GasPrice: 1}
	_, err := apply(s, tx)
	if !errors.Is(err, ErrIntrinsicGas) {
		t.Fatalf("err = %v, want ErrIntrinsicGas", err)
	}
}

func TestApplyTransactionRevertRollsBack(t *testing.T) {
	// Deploy a contract that stores then reverts: storage must stay empty,
	// gas must be consumed, nonce must advance.
	runtime := evm.NewAssembler().
		Push(7).Push(0).Op(evm.SSTORE).
		Push(0).Push(0).Op(evm.REVERT).
		MustBytes()
	s := fundedState()
	deploy := &Transaction{
		Nonce: 0, From: sender, To: nil,
		Data: evm.DeployWrapper(runtime), GasLimit: 500_000, GasPrice: 1,
	}
	receipt, err := apply(s, deploy)
	if err != nil {
		t.Fatal(err)
	}
	if !receipt.Success || receipt.ContractAddress == nil {
		t.Fatalf("deploy failed: %+v", receipt)
	}
	contract := *receipt.ContractAddress

	call := &Transaction{
		Nonce: 1, From: sender, To: &contract, GasLimit: 200_000, GasPrice: 1,
	}
	receipt, err = apply(s, call)
	if err != nil {
		t.Fatal(err)
	}
	if receipt.Success {
		t.Fatal("reverting call must produce a failed receipt")
	}
	if !errors.Is(receipt.Err, evm.ErrRevert) {
		t.Errorf("receipt.Err = %v, want ErrRevert", receipt.Err)
	}
	if s.StorageSize(contract) != 0 {
		t.Error("reverted SSTORE must not persist")
	}
	if receipt.GasUsed != call.GasLimit {
		t.Errorf("failed tx must consume all gas: used %d of %d", receipt.GasUsed, call.GasLimit)
	}
	if s.GetNonce(sender) != 2 {
		t.Errorf("nonce = %d, want 2 (bump survives failure)", s.GetNonce(sender))
	}
}

func TestExecuteBlock(t *testing.T) {
	s := fundedState()
	x := ExecuteBlock(s, miner, blockGasLimit, []*Transaction{
		transferTx(0, 10),
		transferTx(1, 20),
		transferTx(5, 30), // bad nonce: skipped
	})
	if len(x.Receipts) != 2 {
		t.Fatalf("receipts = %d, want 2", len(x.Receipts))
	}
	for i := range x.Receipts {
		if r := &x.Receipts[i]; !r.Success {
			t.Errorf("receipt %d: %v", i, r.Err)
		}
	}
	if len(x.Skipped) != 1 || !errors.Is(x.Skipped[0], ErrNonceMismatch) {
		t.Fatalf("skipped = %v", x.Skipped)
	}
	if x.GasUsed != 2*IntrinsicGas {
		t.Errorf("gas used = %d, want %d", x.GasUsed, 2*IntrinsicGas)
	}
	if got := s.GetBalance(recv).Uint64(); got != 30 {
		t.Errorf("recipient balance = %d, want 30", got)
	}
	// Miner got fees + reward.
	wantMiner := blockReward.Add(evm.WordFromUint64(2 * IntrinsicGas))
	if got := s.GetBalance(miner); got != wantMiner {
		t.Errorf("miner balance = %v, want %v", got, wantMiner)
	}
}

func TestBlockGasLimitEnforced(t *testing.T) {
	x := ExecuteBlock(fundedState(), miner, 60_000, []*Transaction{ // room for one transfer only
		transferTx(0, 1),
		transferTx(1, 1),
	})
	if len(x.Receipts) != 1 {
		t.Fatalf("receipts = %d, want 1", len(x.Receipts))
	}
	if len(x.Skipped) != 1 || !errors.Is(x.Skipped[0], ErrGasLimitExceeded) {
		t.Fatalf("skipped = %v", x.Skipped)
	}
}

// goldenHistory is a fixed three-block history over a 40-account genesis:
// a contract deployment, a storage-writing call beside a transfer, and a
// block of twelve transfers to fresh recipients.
func goldenHistory() (map[types.Address]evm.Word, [][]*Transaction) {
	alloc := map[types.Address]evm.Word{sender: evm.WordFromUint64(1_000_000_000_000)}
	for i := uint64(100); i < 139; i++ {
		alloc[types.AddressFromSeq(i)] = evm.WordFromUint64(i * i)
	}
	runtime := evm.NewAssembler().
		Push(0).Op(evm.CALLDATALOAD).
		Push(0).Op(evm.SSTORE).Op(evm.STOP).
		MustBytes()
	deploy := &Transaction{
		Nonce: 0, From: sender, Data: evm.DeployWrapper(runtime),
		GasLimit: 500_000, GasPrice: 1,
	}
	contract := types.ContractAddress(sender, 0)
	arg := evm.WordFromUint64(1234).Bytes32()
	call := &Transaction{
		Nonce: 1, From: sender, To: &contract, Data: arg[:],
		GasLimit: 200_000, GasPrice: 1,
	}
	var transfers []*Transaction
	for i := uint64(0); i < 12; i++ {
		to := types.AddressFromSeq(200 + i)
		transfers = append(transfers, &Transaction{
			Nonce: 3 + i, From: sender, To: &to,
			Value: evm.WordFromUint64(1000 + i), GasLimit: 50_000, GasPrice: 1,
		})
	}
	return alloc, [][]*Transaction{{deploy}, {call, transferTx(2, 42)}, transfers}
}

// executeHistory executes blocks on a fresh state from alloc, failing the
// test on any skip, and returns the state root at the end.
func executeHistory(t *testing.T, alloc map[types.Address]evm.Word, blocks [][]*Transaction) types.Hash {
	t.Helper()
	s := NewStateWithAlloc(alloc)
	for i, txs := range blocks {
		x := ExecuteBlock(s, miner, blockGasLimit, txs)
		if len(x.Skipped) != 0 {
			t.Fatalf("block %d skipped %v", i+1, x.Skipped)
		}
		for j := range x.Receipts {
			if !x.Receipts[j].Success {
				t.Fatalf("block %d tx %d failed: %v", i+1, j, x.Receipts[j].Err)
			}
		}
	}
	return s.Commit()
}

// TestReplayDeterminism: two states executing one history reach one root.
func TestReplayDeterminism(t *testing.T) {
	alloc, blocks := goldenHistory()
	if a, b := executeHistory(t, alloc, blocks), executeHistory(t, alloc, blocks); a != b {
		t.Fatalf("two executions of one history: roots %v and %v", a, b)
	}
}

// TestChainGolden pins the state root (State.Commit) after goldenHistory
// in testdata/state_root.txt.
//
// Provenance: the pinned root is the head state root this test logged at
// commit b1a91af, where the root was computed by internal/trie's pointer
// trie over blocks a sealing chain built. The root fold that replaced the
// trie reproduces it bit for bit, and so does the same history run through
// ExecuteBlock on a bare State.
func TestChainGolden(t *testing.T) {
	alloc, blocks := goldenHistory()
	root := executeHistory(t, alloc, blocks)
	golden.Text(t, "testdata/state_root.txt", fmt.Appendf(nil, "0x%x\n", root[:]))
}

func TestTxHashDistinct(t *testing.T) {
	a := transferTx(0, 1)
	b := transferTx(0, 2)
	if a.Hash() == b.Hash() {
		t.Error("different transactions must have different hashes")
	}
	c := transferTx(0, 1)
	if a.Hash() != c.Hash() {
		t.Error("identical transactions must have equal hashes")
	}
}

func TestInternalCallTraceInReceipt(t *testing.T) {
	// Deploy a proxy that calls the address in calldata; check the receipt
	// carries both the outer tx and the internal call.
	runtime := evm.NewAssembler().
		Push(0).Push(0).Push(0).Push(0).Push(0).
		Push(0).Op(evm.CALLDATALOAD).
		Push(30000).
		Op(evm.CALL).Op(evm.POP).Op(evm.STOP).
		MustBytes()
	s := fundedState()
	deploy := &Transaction{
		Nonce: 0, From: sender, Data: evm.DeployWrapper(runtime),
		GasLimit: 500_000, GasPrice: 1,
	}
	receipt, err := apply(s, deploy)
	if err != nil || !receipt.Success {
		t.Fatalf("deploy: %v %v", err, receipt)
	}
	proxy := *receipt.ContractAddress

	target := types.AddressFromSeq(77)
	var input [32]byte
	copy(input[12:], target[:])
	call := &Transaction{
		Nonce: 1, From: sender, To: &proxy, Data: input[:],
		GasLimit: 300_000, GasPrice: 1,
	}
	receipt, err = apply(s, call)
	if err != nil || !receipt.Success {
		t.Fatalf("call: %v %+v", err, receipt)
	}
	if len(receipt.Traces) != 2 {
		t.Fatalf("traces = %d, want 2: %+v", len(receipt.Traces), receipt.Traces)
	}
	if receipt.Traces[1].Kind != evm.KindCall || receipt.Traces[1].From != proxy || receipt.Traces[1].To != target {
		t.Errorf("internal trace = %+v", receipt.Traces[1])
	}
}
