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
	// CommitInterval controls how often the (expensive) state root is
	// computed: every Nth block. Zero commits every block; the large
	// simulated histories use a sparse interval. Blocks without a commit
	// carry the previous state root forward.
	CommitInterval uint64
}

// DefaultConfig mirrors mainnet-flavoured parameters.
func DefaultConfig() Config {
	return Config{
		BlockGasLimit:  8_000_000,
		CommitInterval: 1,
	}
}

// blockReward is credited to the miner of every block: 5 ether in wei.
var blockReward = evm.WordFromUint64(5_000_000_000_000_000_000)

// Chain is an in-memory blockchain: the head block of a hash-linked chain
// plus the world state after it. It is the substrate the synthetic workload
// executes on. It keeps no history: each block is returned by the BuildBlock
// call that sealed it, and only the head stays reachable from the Chain.
//
// Chain is not safe for concurrent use.
type Chain struct {
	cfg   Config
	head  *Block
	state *State
	// lastRoot is the most recently computed state root (see
	// Config.CommitInterval).
	lastRoot types.Hash
}

// NewChain creates a chain with a genesis block holding the given
// allocation.
func NewChain(cfg Config, alloc map[types.Address]evm.Word) *Chain {
	state := NewStateWithAlloc(alloc)
	root := state.Commit()
	genesis := &Block{Header: Header{
		Number:    0,
		StateRoot: root,
		GasLimit:  cfg.BlockGasLimit,
	}}
	return &Chain{cfg: cfg, head: genesis, state: state, lastRoot: root}
}

// Head returns the latest block.
func (c *Chain) Head() *Block { return c.head }

// State returns the world state at the head block. Callers must not retain
// it across BuildBlock calls if they need a stable snapshot; use State.Copy.
func (c *Chain) State() *State { return c.state }

// BuildBlock executes txs on top of the head block, seals a new block and
// makes it the head. Transactions that fail validation (bad nonce,
// insufficient funds) are skipped and reported in the returned skipped
// slice — the block contains only the transactions that were actually
// applied, exactly like a miner dropping unexecutable transactions.
func (c *Chain) BuildBlock(miner types.Address, timestamp int64, txs []*Transaction) (*Block, []*Receipt, []error) {
	var (
		applied  []*Transaction
		receipts []*Receipt
		skipped  []error
		gasUsed  uint64
	)
	for _, tx := range txs {
		if gasUsed+tx.GasLimit > c.cfg.BlockGasLimit {
			skipped = append(skipped, fmt.Errorf("%w: tx %v", ErrGasLimitExceeded, tx.Hash()))
			continue
		}
		receipt, err := ApplyTransaction(c.state, tx, miner)
		if err != nil {
			skipped = append(skipped, err)
			continue
		}
		receipt.TxIndex = len(applied)
		applied = append(applied, tx)
		receipts = append(receipts, receipt)
		gasUsed += receipt.GasUsed
	}
	c.state.AddBalance(miner, blockReward)
	c.state.DiscardJournal()

	parent := c.head
	number := parent.Header.Number + 1
	root := c.lastRoot
	if c.cfg.CommitInterval <= 1 || number%c.cfg.CommitInterval == 0 {
		root = c.state.Commit()
		c.lastRoot = root
	}
	block := &Block{
		Header: Header{
			ParentHash: parent.Hash(),
			Number:     number,
			Time:       timestamp,
			Miner:      miner,
			StateRoot:  root,
			TxRoot:     receiptsTxRoot(receipts),
			GasUsed:    gasUsed,
			GasLimit:   c.cfg.BlockGasLimit,
		},
		Txs: applied,
	}
	c.head = block
	return block, receipts, skipped
}
