package chain

import (
	"encoding/binary"

	"ethpart/internal/evm"
	"ethpart/internal/types"
)

// Transaction is a user-submitted message. A nil To deploys the contract
// whose init code is in Data; otherwise Data is the call input.
//
// There are no signatures: the synthetic workload has no adversary, and
// signature checking is orthogonal to partitioning behaviour. From is
// therefore carried explicitly.
//
// FromID and ToID optionally name the sender and recipient by handle, so
// execution resolves them without hashing their addresses (State.Prime). A
// submitter that knows the accounts' dense IDs sets them; the zero Handle
// means "resolve by address". They are not part of the transaction's
// identity (Hash).
type Transaction struct {
	Nonce    uint64
	From     types.Address
	To       *types.Address
	Value    evm.Word
	GasLimit uint64
	GasPrice uint64
	Data     []byte
	FromID   Handle
	ToID     Handle
}

// Handle names an account by its dense ID in the registry the submitter
// and the state share (a trace.Registry), offset by one so that the zero
// Handle names no account.
type Handle uint32

// HandleOf returns the handle of the account with dense ID id.
func HandleOf(id uint64) Handle { return Handle(id + 1) }

// ID returns the dense ID h names; h must not be zero.
func (h Handle) ID() uint64 { return uint64(h) - 1 }

// IsCreate reports whether the transaction deploys a contract.
func (tx *Transaction) IsCreate() bool { return tx.To == nil }

// IntrinsicGas is the base cost charged for any transaction before
// execution, as in Ethereum.
const IntrinsicGas = 21_000

// CreateGas is the additional intrinsic cost of a contract-creating
// transaction.
const CreateGas = 32_000

// intrinsicGas returns the pre-execution gas cost of tx.
func (tx *Transaction) intrinsicGas() uint64 {
	gas := uint64(IntrinsicGas)
	if tx.IsCreate() {
		gas += CreateGas
	}
	gas += uint64(len(tx.Data)) * 4
	return gas
}

// Hash returns the transaction digest: SHA-256 over nonce, gas limit, gas
// price, sender, recipient (absent for a creation), value and data. The
// fixed-width fields and any short data are laid out in one stack buffer
// and hashed in a single call.
func (tx *Transaction) Hash() types.Hash {
	var buf [8*3 + types.AddressLen*2 + 32 + 128]byte
	binary.BigEndian.PutUint64(buf[0:], tx.Nonce)
	binary.BigEndian.PutUint64(buf[8:], tx.GasLimit)
	binary.BigEndian.PutUint64(buf[16:], tx.GasPrice)
	n := 24
	n += copy(buf[n:], tx.From[:])
	if tx.To != nil {
		n += copy(buf[n:], tx.To[:])
	}
	val := tx.Value.Bytes32()
	n += copy(buf[n:], val[:])
	if len(tx.Data) > len(buf)-n {
		return types.HashConcat(buf[:n], tx.Data)
	}
	n += copy(buf[n:], tx.Data)
	return types.HashData(buf[:n])
}

// Receipt is the result of executing a transaction. It does not carry the
// transaction's hash: a reader that needs one hashes the transaction
// (Transaction.Hash), so execution never pays for a digest nobody reads.
type Receipt struct {
	// Success is false when execution failed (revert, out of gas, bad
	// nonce); the failure reason is in Err.
	Success bool
	Err     error
	GasUsed uint64
	// ContractAddress is set for successful contract creations.
	ContractAddress *types.Address
	// Traces holds the outer transaction entry plus every internal call
	// and creation performed during execution — the edges of the
	// blockchain graph.
	Traces []evm.CallTrace
}
