package chain

import (
	"encoding/binary"

	"ethpart/internal/trie"
	"ethpart/internal/types"
)

// Header is a block header. Hash-linking through ParentHash plus the state
// and transaction roots give the chain its integrity guarantees.
type Header struct {
	ParentHash types.Hash
	Number     uint64
	// Time is the block timestamp in Unix seconds.
	Time      int64
	Miner     types.Address
	StateRoot types.Hash
	TxRoot    types.Hash
	GasUsed   uint64
	GasLimit  uint64
}

// Hash returns the header digest, which identifies the block.
func (h *Header) Hash() types.Hash {
	var nums [8 * 4]byte
	binary.BigEndian.PutUint64(nums[0:], h.Number)
	binary.BigEndian.PutUint64(nums[8:], uint64(h.Time))
	binary.BigEndian.PutUint64(nums[16:], h.GasUsed)
	binary.BigEndian.PutUint64(nums[24:], h.GasLimit)
	return types.HashConcat(
		h.ParentHash[:], nums[:], h.Miner[:], h.StateRoot[:], h.TxRoot[:],
	)
}

// Block is a header plus its transactions.
type Block struct {
	Header Header
	Txs    []*Transaction
}

// Hash returns the block identifier (the header hash).
func (b *Block) Hash() types.Hash { return b.Header.Hash() }

// receiptsTxRoot is the Merkle root of the transactions the receipts were
// applied from, taken from the hashes the receipts already carry.
func receiptsTxRoot(receipts []*Receipt) types.Hash {
	return txRoot(len(receipts), func(i int) types.Hash { return receipts[i].TxHash })
}

// txRoot is the Merkle root over n transaction hashes keyed by index.
func txRoot(n int, hash func(i int) types.Hash) types.Hash {
	t := trie.New()
	var idx [8]byte
	for i := range n {
		binary.BigEndian.PutUint64(idx[:], uint64(i))
		h := hash(i)
		t.Put(idx[:], h[:])
	}
	return t.Root()
}
