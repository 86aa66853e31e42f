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
	// BlockReward is credited to the miner of every block.
	BlockReward evm.Word
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
		BlockReward:    evm.WordFromUint64(5_000_000_000_000_000_000), // 5 ether in wei
		CommitInterval: 1,
	}
}

// Chain is an in-memory blockchain: a hash-linked list of blocks plus the
// world state after the head block. It is the substrate the synthetic
// workload executes on.
//
// Chain is not safe for concurrent use.
type Chain struct {
	cfg    Config
	blocks []*Block
	state  *State
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
	return &Chain{cfg: cfg, blocks: []*Block{genesis}, state: state, lastRoot: root}
}

// Head returns the latest block.
func (c *Chain) Head() *Block { return c.blocks[len(c.blocks)-1] }

// Len returns the number of blocks including genesis.
func (c *Chain) Len() int { return len(c.blocks) }

// BlockByNumber returns block n, or nil when out of range.
func (c *Chain) BlockByNumber(n uint64) *Block {
	if n >= uint64(len(c.blocks)) {
		return nil
	}
	return c.blocks[n]
}

// State returns the world state at the head block. Callers must not retain
// it across BuildBlock calls if they need a stable snapshot; use State.Copy.
func (c *Chain) State() *State { return c.state }

// BuildBlock executes txs on top of the head block, seals a new block and
// appends it. Transactions that fail validation (bad nonce, insufficient
// funds) are skipped and reported in the returned skipped slice —
// the block contains only the transactions that were actually applied,
// exactly like a miner dropping unexecutable transactions.
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
	c.state.AddBalance(miner, c.cfg.BlockReward)
	c.state.DiscardJournal()

	parent := c.Head()
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
	c.blocks = append(c.blocks, block)
	return block, receipts, skipped
}

// VerifyHeaderChain checks hash linking and number contiguity over the whole
// chain. It is used by integrity tests and costs O(blocks).
func (c *Chain) VerifyHeaderChain() error {
	for i := 1; i < len(c.blocks); i++ {
		prev, cur := c.blocks[i-1], c.blocks[i]
		if cur.Header.ParentHash != prev.Hash() {
			return fmt.Errorf("%w: block %d", ErrUnknownParent, cur.Header.Number)
		}
		if cur.Header.Number != prev.Header.Number+1 {
			return fmt.Errorf("%w: block %d follows %d", ErrNonContiguousNumber,
				cur.Header.Number, prev.Header.Number)
		}
		if cur.Header.TxRoot != TxRoot(cur.Txs) {
			return fmt.Errorf("%w: block %d", ErrTxRootMismatch, cur.Header.Number)
		}
	}
	return nil
}

// Replay re-executes the whole chain from genesis on a fresh state and
// verifies that the head state root matches. It proves that block execution
// is deterministic.
func (c *Chain) Replay(alloc map[types.Address]evm.Word) error {
	fresh := NewStateWithAlloc(alloc)
	for _, b := range c.blocks[1:] {
		for _, tx := range b.Txs {
			if _, err := ApplyTransaction(fresh, tx, b.Header.Miner); err != nil {
				return fmt.Errorf("chain: replaying block %d: %w", b.Header.Number, err)
			}
		}
		fresh.AddBalance(b.Header.Miner, c.cfg.BlockReward)
		fresh.DiscardJournal()
	}
	if got, want := fresh.Commit(), c.state.Commit(); got != want {
		return fmt.Errorf("%w: replay got %v, head has %v", ErrStateRootMismatch, got, want)
	}
	return nil
}
