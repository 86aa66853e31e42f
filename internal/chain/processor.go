package chain

import (
	"errors"
	"fmt"

	"ethpart/internal/evm"
	"ethpart/internal/types"
)

// Transaction validation errors.
var (
	ErrNonceMismatch     = errors.New("chain: transaction nonce mismatch")
	ErrInsufficientFunds = errors.New("chain: insufficient funds for gas * price + value")
	ErrIntrinsicGas      = errors.New("chain: gas limit below intrinsic cost")
	ErrGasLimitExceeded  = errors.New("chain: block gas limit exceeded")
)

// gasValue is gas * price in wei. The product is taken in 256 bits: in
// uint64 a large limit times a large price wraps, and a wrapped pre-payment
// of zero would pass the funds check and then "refund" money into existence.
func gasValue(gas, price uint64) evm.Word {
	return evm.WordFromUint64(gas).Mul(evm.WordFromUint64(price))
}

// ApplyTransactionInto executes tx against state and writes its result into
// a caller-supplied receipt — so a block's receipts can live in one slab —
// with an optional cross-shard call interceptor installed in the VM (see
// evm.RemoteHook). The sharded execution engine uses the hook to divert
// internal calls that leave the executing shard into receipts.
//
// Semantics follow Ethereum's: the nonce must match, the sender pre-pays
// gasLimit*gasPrice, execution runs with the remaining gas, failed
// executions revert all state changes except the nonce bump and the gas
// payment, and the miner is credited with gasUsed*gasPrice.
//
// *receipt is overwritten whole, except that the VM records this
// transaction's calls into the backing array of its old Traces
// (evm.VM.ReuseTraces), so a receipt reused transaction after transaction
// records without allocating. When validation rejects tx the receipt holds
// only an empty trace.
func ApplyTransactionInto(state *State, tx *Transaction, miner types.Address, hook evm.RemoteHook, receipt *Receipt) error {
	traces := receipt.Traces[:0]
	*receipt = Receipt{Traces: traces}
	if tx.To != nil {
		state.Prime(tx.ToID, *tx.To)
	}
	state.Prime(tx.FromID, tx.From)

	if got := state.GetNonce(tx.From); got != tx.Nonce {
		return fmt.Errorf("%w: account %v has nonce %d, tx has %d",
			ErrNonceMismatch, tx.From, got, tx.Nonce)
	}
	intrinsic := tx.intrinsicGas()
	if tx.GasLimit < intrinsic {
		return fmt.Errorf("%w: limit %d < intrinsic %d", ErrIntrinsicGas, tx.GasLimit, intrinsic)
	}
	gasCost := gasValue(tx.GasLimit, tx.GasPrice)
	totalCost := gasCost.Add(tx.Value)
	if state.GetBalance(tx.From).Cmp(totalCost) < 0 {
		return fmt.Errorf("%w: account %v", ErrInsufficientFunds, tx.From)
	}

	// Buy gas and bump the nonce; these survive execution failure.
	state.SubBalance(tx.From, gasCost)
	state.SetNonce(tx.From, tx.Nonce+1)
	state.DiscardJournal()

	snap := state.Snapshot()
	vm := evm.New(state)
	vm.ReuseTraces(traces)
	if hook != nil {
		vm.SetRemoteHook(hook)
	}
	gas := tx.GasLimit - intrinsic

	var (
		gasLeft uint64
		execErr error
	)
	if tx.IsCreate() {
		// The contract address derives from the sender's pre-transaction
		// nonce, as in Ethereum.
		addr := types.ContractAddress(tx.From, tx.Nonce)
		gasLeft, execErr = vm.CreateAt(tx.From, addr, tx.Data, tx.Value, gas)
		if execErr == nil {
			receipt.ContractAddress = &addr
		}
	} else {
		_, gasLeft, execErr = vm.Call(tx.From, *tx.To, tx.Value, tx.Data, gas)
	}

	if execErr != nil {
		state.RevertToSnapshot(snap)
		gasLeft = 0 // failed executions consume all gas, as post-Homestead Ethereum
	}
	state.DiscardJournal()

	gasUsed := tx.GasLimit - gasLeft
	// Refund unused gas and pay the miner.
	state.AddBalance(tx.From, gasValue(gasLeft, tx.GasPrice))
	state.AddBalance(miner, gasValue(gasUsed, tx.GasPrice))
	state.DiscardJournal()

	receipt.Success = execErr == nil
	receipt.Err = execErr
	receipt.GasUsed = gasUsed
	// The VM is single-use, so its trace slice is the receipt's from here
	// (in the receipt's own backing array when it had one).
	receipt.Traces = vm.Traces()
	return nil
}
