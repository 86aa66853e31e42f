// Package trie implements a binary Merkle trie used for state and
// transaction commitments in block headers. Keys are hashed to fixed-length
// paths, values are arbitrary bytes, and the root hash authenticates the
// entire key/value set — the role Ethereum's Merkle-Patricia trie plays in
// its block headers.
//
// The trie supports insertion, lookup, deletion and root computation with
// per-node hash caching.
package trie

import (
	"ethpart/internal/types"
)

// node is either a *leaf or a *branch.
type node interface {
	// hash returns the node's Merkle hash, computing and caching it on
	// first use.
	hash() types.Hash
}

// Domain-separation tags so leaves can never be confused with branches.
var (
	leafTag   = []byte{0x00}
	branchTag = []byte{0x01}
)

// leaf holds the hashed key path and the value.
type leaf struct {
	path   types.Hash // sha256 of the user key
	value  []byte
	cached types.Hash
	dirty  bool
}

func newLeaf(path types.Hash, value []byte) *leaf {
	return &leaf{path: path, value: value, dirty: true}
}

func (l *leaf) hash() types.Hash {
	if l.dirty {
		l.cached = types.HashConcat(leafTag, l.path[:], l.value)
		l.dirty = false
	}
	return l.cached
}

// branch has two children indexed by the bit at its depth.
type branch struct {
	child  [2]node
	cached types.Hash
	dirty  bool
}

func (b *branch) hash() types.Hash {
	if b.dirty {
		var lh, rh types.Hash
		if b.child[0] != nil {
			lh = b.child[0].hash()
		}
		if b.child[1] != nil {
			rh = b.child[1].hash()
		}
		b.cached = types.HashConcat(branchTag, lh[:], rh[:])
		b.dirty = false
	}
	return b.cached
}

// Trie is a binary Merkle trie. The zero value is an empty trie ready to
// use. Trie is not safe for concurrent use.
type Trie struct {
	root node
	size int
}

// New returns an empty trie.
func New() *Trie { return &Trie{} }

// Len returns the number of keys in the trie.
func (t *Trie) Len() int { return t.size }

// pathBit returns bit `depth` of the path, MSB-first.
func pathBit(p types.Hash, depth int) int {
	return int(p[depth/8]>>(7-uint(depth)%8)) & 1
}

// Put inserts or updates key with value. An empty value is stored as-is;
// use Delete to remove keys.
func (t *Trie) Put(key, value []byte) {
	path := types.HashData(key)
	v := make([]byte, len(value))
	copy(v, value)
	var created bool
	t.root, created = insert(t.root, path, v, 0)
	if created {
		t.size++
	}
}

// insert returns the new subtree root and whether a new key was created.
func insert(n node, path types.Hash, value []byte, depth int) (node, bool) {
	switch n := n.(type) {
	case nil:
		return newLeaf(path, value), true
	case *leaf:
		if n.path == path {
			n.value = value
			n.dirty = true
			return n, false
		}
		// Split: create branches until the two paths diverge.
		b := &branch{dirty: true}
		top := b
		d := depth
		for pathBit(n.path, d) == pathBit(path, d) {
			nb := &branch{dirty: true}
			b.child[pathBit(path, d)] = nb
			b = nb
			d++
		}
		b.child[pathBit(n.path, d)] = n
		b.child[pathBit(path, d)] = newLeaf(path, value)
		return top, true
	case *branch:
		bit := pathBit(path, depth)
		child, created := insert(n.child[bit], path, value, depth+1)
		n.child[bit] = child
		n.dirty = true
		return n, created
	default:
		// Unreachable: node has exactly two implementations.
		return n, false
	}
}

// Get returns the value stored at key.
func (t *Trie) Get(key []byte) ([]byte, bool) {
	path := types.HashData(key)
	n := t.root
	depth := 0
	for n != nil {
		switch cur := n.(type) {
		case *leaf:
			if cur.path == path {
				return cur.value, true
			}
			return nil, false
		case *branch:
			n = cur.child[pathBit(path, depth)]
			depth++
		}
	}
	return nil, false
}

// Delete removes key, reporting whether it was present.
func (t *Trie) Delete(key []byte) bool {
	path := types.HashData(key)
	root, removed := remove(t.root, path, 0)
	if removed {
		t.root = root
		t.size--
	}
	return removed
}

// remove returns the new subtree root and whether the key was found.
// Single-child branches left by a removal are collapsed so that the trie
// shape (and therefore the root hash) is canonical for the key set.
func remove(n node, path types.Hash, depth int) (node, bool) {
	switch n := n.(type) {
	case nil:
		return nil, false
	case *leaf:
		if n.path == path {
			return nil, true
		}
		return n, false
	case *branch:
		bit := pathBit(path, depth)
		child, removed := remove(n.child[bit], path, depth+1)
		if !removed {
			return n, false
		}
		n.child[bit] = child
		n.dirty = true
		// Collapse so that the shape stays canonical for the key set: a
		// branch whose only child is a leaf lifts the leaf up; the
		// recursion propagates the lift through whole prefix chains.
		var only node
		switch {
		case n.child[0] == nil && n.child[1] == nil:
			return nil, true
		case n.child[0] == nil:
			only = n.child[1]
		case n.child[1] == nil:
			only = n.child[0]
		default:
			return n, true
		}
		if lf, ok := only.(*leaf); ok {
			return lf, true
		}
		return n, true
	default:
		return n, false
	}
}

// Root returns the Merkle root. The empty trie has a zero root.
func (t *Trie) Root() types.Hash {
	if t.root == nil {
		return types.Hash{}
	}
	return t.root.hash()
}
