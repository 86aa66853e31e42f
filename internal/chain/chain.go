package chain

import (
	"fmt"

	"ethpart/internal/evm"
	"ethpart/internal/types"
)

// Config holds chain-wide parameters.
type Config struct {
	// BlockGasLimit bounds the total gas of a block's transactions.
	BlockGasLimit uint64
}

// DefaultConfig mirrors mainnet-flavoured parameters.
func DefaultConfig() Config {
	return Config{BlockGasLimit: 8_000_000}
}

// blockReward is credited to the miner of every block: 5 ether in wei.
var blockReward = evm.WordFromUint64(5_000_000_000_000_000_000)

// Chain is an in-memory blockchain: the head block of a hash-linked chain
// plus the world state after it. It keeps no history: each block is
// returned by the BuildBlock call that sealed it, and only the head stays
// reachable from the Chain.
//
// Chain is not safe for concurrent use.
type Chain struct {
	cfg   Config
	head  *Block
	state *State
}

// NewChain creates a chain with a genesis block holding the given
// allocation.
func NewChain(cfg Config, alloc map[types.Address]evm.Word) *Chain {
	state := NewStateWithAlloc(alloc)
	genesis := &Block{Header: Header{
		Number:    0,
		StateRoot: state.Commit(),
		GasLimit:  cfg.BlockGasLimit,
	}}
	return &Chain{cfg: cfg, head: genesis, state: state}
}

// Head returns the latest block.
func (c *Chain) Head() *Block { return c.head }

// State returns the world state at the head block. Callers must not retain
// it across BuildBlock calls if they need a stable snapshot; use State.Copy.
func (c *Chain) State() *State { return c.state }

// Executed is what executing one block's transactions produced.
type Executed struct {
	Txs      []*Transaction // the transactions applied, in block order
	Receipts []*Receipt     // one per applied transaction; Receipts[i].TxIndex == i
	Skipped  []error        // one per transaction that failed validation
	GasUsed  uint64         // the applied transactions' total gas
}

// ExecuteBlock applies txs to state in order as the block mined by miner,
// credits the block reward and discards the journal. Transactions that fail
// validation (bad nonce, insufficient funds, or gas beyond what gasLimit
// leaves) are skipped and reported — the block holds only the transactions
// actually applied, exactly like a miner dropping unexecutable transactions.
// It computes no commitment: that is BuildBlock's seal.
func ExecuteBlock(state *State, miner types.Address, gasLimit uint64, txs []*Transaction) Executed {
	var x Executed
	for _, tx := range txs {
		if tx.GasLimit > gasLimit-x.GasUsed {
			x.Skipped = append(x.Skipped, fmt.Errorf("%w: tx %v", ErrGasLimitExceeded, tx.Hash()))
			continue
		}
		receipt, err := ApplyTransaction(state, tx, miner)
		if err != nil {
			x.Skipped = append(x.Skipped, err)
			continue
		}
		receipt.TxIndex = len(x.Txs)
		x.Txs = append(x.Txs, tx)
		x.Receipts = append(x.Receipts, receipt)
		x.GasUsed += receipt.GasUsed
	}
	state.AddBalance(miner, blockReward)
	state.DiscardJournal()
	return x
}

// BuildBlock executes txs on top of the head block (ExecuteBlock), seals a
// new block over the result and makes it the head.
func (c *Chain) BuildBlock(miner types.Address, timestamp int64, txs []*Transaction) (*Block, []*Receipt, []error) {
	x := ExecuteBlock(c.state, miner, c.cfg.BlockGasLimit, txs)
	parent := c.head
	c.head = &Block{
		Header: Header{
			ParentHash: parent.Hash(),
			Number:     parent.Header.Number + 1,
			Time:       timestamp,
			Miner:      miner,
			StateRoot:  c.state.Commit(),
			TxRoot:     receiptsTxRoot(x.Receipts),
			GasUsed:    x.GasUsed,
			GasLimit:   c.cfg.BlockGasLimit,
		},
		Txs: x.Txs,
	}
	return c.head, x.Receipts, x.Skipped
}
