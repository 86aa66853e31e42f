// Package types holds the primitive blockchain types — addresses and hashes —
// shared by the chain, EVM and trie packages.
package types

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// AddressLen is the length of an account address in bytes.
const AddressLen = 20

// HashLen is the length of a hash in bytes.
const HashLen = 32

// Address identifies an account or contract, Ethereum-style (20 bytes).
type Address [AddressLen]byte

// Hash is a 32-byte digest.
type Hash [HashLen]byte

// BytesToAddress converts b to an Address, left-padding or truncating to the
// last 20 bytes as Ethereum does.
func BytesToAddress(b []byte) Address {
	var a Address
	if len(b) > AddressLen {
		b = b[len(b)-AddressLen:]
	}
	copy(a[AddressLen-len(b):], b)
	return a
}

// AddressFromSeq returns a deterministic synthetic address for sequence
// number n. The synthetic workload generator uses it so that traces are
// reproducible: the same sequence number always yields the same address.
func AddressFromSeq(n uint64) Address {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], n)
	h := sha256.Sum256(buf[:])
	return BytesToAddress(h[:])
}

// String implements fmt.Stringer with a shortened form for logs.
func (a Address) String() string {
	return fmt.Sprintf("0x%x…%x", a[:3], a[AddressLen-2:])
}

// String implements fmt.Stringer with a shortened form for logs.
func (h Hash) String() string {
	return fmt.Sprintf("0x%x…%x", h[:4], h[HashLen-2:])
}

// HashData returns the SHA-256 digest of data. The reproduction uses SHA-256
// everywhere Ethereum uses Keccak-256; the choice of hash function has no
// bearing on partitioning behaviour.
func HashData(data []byte) Hash { return sha256.Sum256(data) }

// HashConcat hashes the concatenation of the given byte slices without
// intermediate allocation.
func HashConcat(parts ...[]byte) Hash {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

// ContractAddress derives the address of a contract created by creator with
// the given nonce, mirroring Ethereum's CREATE address derivation.
func ContractAddress(creator Address, nonce uint64) Address {
	var buf [AddressLen + 8]byte
	copy(buf[:], creator[:])
	binary.BigEndian.PutUint64(buf[AddressLen:], nonce)
	h := sha256.Sum256(buf[:])
	return BytesToAddress(h[:])
}
