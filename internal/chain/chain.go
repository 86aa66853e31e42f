package chain

import (
	"fmt"

	"ethpart/internal/evm"
	"ethpart/internal/types"
)

// blockReward is credited to the miner of every block: 5 ether in wei.
var blockReward = evm.WordFromUint64(5_000_000_000_000_000_000)

// Executed is what executing one block's transactions produced.
type Executed struct {
	Receipts []Receipt // one per applied transaction, in block order; Receipts[i].TxIndex == i
	Skipped  []error   // one per transaction that failed validation
	GasUsed  uint64    // the applied transactions' total gas
}

// ExecuteBlock applies txs to state in order as the block mined by miner,
// credits the block reward and discards the journal. Transactions that fail
// validation (bad nonce, insufficient funds, or gas beyond what gasLimit
// leaves) are skipped and reported — the receipts cover only the
// transactions actually applied, exactly like a miner dropping unexecutable
// transactions. The receipts are one slab allocated for this block, so a
// caller may keep them past the next call. Nothing is sealed: no header,
// transaction root or state root is computed (State.Commit gives the last).
func ExecuteBlock(state *State, miner types.Address, gasLimit uint64, txs []*Transaction) Executed {
	x := Executed{Receipts: make([]Receipt, 0, len(txs))}
	for _, tx := range txs {
		if tx.GasLimit > gasLimit-x.GasUsed {
			x.Skipped = append(x.Skipped, fmt.Errorf("%w: tx %v", ErrGasLimitExceeded, tx.Hash()))
			continue
		}
		n := len(x.Receipts)
		receipt := &x.Receipts[:n+1][n]
		if err := ApplyTransactionInto(state, tx, miner, nil, receipt); err != nil {
			x.Skipped = append(x.Skipped, err)
			continue
		}
		receipt.TxIndex = n
		x.Receipts = x.Receipts[:n+1]
		x.GasUsed += receipt.GasUsed
	}
	state.AddBalance(miner, blockReward)
	state.DiscardJournal()
	return x
}
