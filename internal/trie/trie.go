// Package trie computes the root of a binary Merkle trie, the state and
// transaction commitment in block headers — the role Ethereum's
// Merkle-Patricia trie plays in its headers. Keys are hashed to 256-bit
// paths; a subtree holding one key is that key's leaf hash, a subtree
// holding more is a branch over its two halves by the next path bit, and an
// empty one is the zero hash, so the root depends only on the key/value set.
//
// Both callers build the set once per commitment, take the root and drop
// it, so the trie is never materialised: Put hashes its leaf on the spot
// and Root folds the leaves bottom-up. There is no lookup or deletion.
package trie

import (
	"crypto/sha256"

	"ethpart/internal/types"
)

// Domain-separation tags so leaves can never be confused with branches.
var leafTag = []byte{0x00}

const branchTag = 0x01

type leaf struct{ path, hash types.Hash }

// Trie collects the leaves of one commitment. The zero value is empty and
// ready to use; a Trie is not safe for concurrent use.
type Trie struct{ leaves []leaf }

// New returns an empty trie.
func New() *Trie { return &Trie{} }

// Put adds key with value; neither is retained. Each key may be added once:
// a repeated key panics in Root.
func (t *Trie) Put(key, value []byte) {
	path := types.HashData(key)
	t.leaves = append(t.leaves, leaf{path, types.HashConcat(leafTag, path[:], value)})
}

// Root returns the Merkle root of the keys added so far; the empty trie has
// a zero root.
func (t *Trie) Root() types.Hash { return fold(t.leaves, 0) }

// fold hashes the subtree holding ls, whose paths agree on their first
// depth bits: it partitions ls in place by bit depth (MSB-first) and
// combines the two halves on the way back up.
func fold(ls []leaf, depth int) types.Hash {
	switch {
	case len(ls) == 0:
		return types.Hash{}
	case len(ls) == 1:
		return ls[0].hash
	case depth == 8*types.HashLen:
		panic("trie: duplicate key")
	}
	zeros, ones := 0, len(ls)
	for zeros < ones {
		if ls[zeros].path[depth/8]>>(7-depth%8)&1 == 0 {
			zeros++
		} else {
			ones--
			ls[zeros], ls[ones] = ls[ones], ls[zeros]
		}
	}
	l, r := fold(ls[:zeros], depth+1), fold(ls[zeros:], depth+1)
	var buf [1 + 2*types.HashLen]byte
	buf[0] = branchTag
	copy(buf[1:], l[:])
	copy(buf[1+types.HashLen:], r[:])
	return sha256.Sum256(buf[:])
}
