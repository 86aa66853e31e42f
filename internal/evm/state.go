package evm

import (
	"ethpart/internal/types"
)

// StateDB is the world-state interface the VM executes against. The chain
// package provides the canonical implementation; tests use an in-memory
// stub.
type StateDB interface {
	// Exist reports whether the account exists (has been touched).
	Exist(addr types.Address) bool
	// CreateAccount ensures an account record exists for addr.
	CreateAccount(addr types.Address)

	// GetBalance returns the account balance in wei.
	GetBalance(addr types.Address) Word
	// AddBalance credits amount to addr, creating the account if needed.
	AddBalance(addr types.Address, amount Word)
	// SubBalance debits amount from addr. The caller must have verified
	// sufficient balance; implementations may clamp at zero.
	SubBalance(addr types.Address, amount Word)

	// GetNonce and SetNonce access the account transaction counter.
	GetNonce(addr types.Address) uint64
	SetNonce(addr types.Address, nonce uint64)

	// GetCode and SetCode access contract bytecode.
	GetCode(addr types.Address) []byte
	SetCode(addr types.Address, code []byte)

	// GetState and SetState access a contract's 32-byte key/value storage.
	GetState(addr types.Address, key Word) Word
	SetState(addr types.Address, key, value Word)
}

// CallKind labels an entry in a call trace.
type CallKind uint8

// Call trace kinds.
const (
	// KindTransaction is the outer, user-submitted message.
	KindTransaction CallKind = iota + 1
	// KindCall is an internal message call performed by a contract.
	KindCall
	// KindCreate is a contract creation.
	KindCreate
)

// String implements fmt.Stringer.
func (k CallKind) String() string {
	switch k {
	case KindTransaction:
		return "tx"
	case KindCall:
		return "call"
	case KindCreate:
		return "create"
	default:
		return "unknown"
	}
}

// CallTrace records one edge-producing interaction observed during
// execution: the outer transaction plus every internal call and creation.
// The graph builder turns each trace entry into a directed edge.
type CallTrace struct {
	Kind  CallKind
	From  types.Address
	To    types.Address
	Value Word
}
