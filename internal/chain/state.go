// Package chain implements the blockchain substrate: world state with
// journaled rollback and a Merkle state root, transactions, and a processor
// that executes them through the EVM, block by block, and collects the call
// traces the blockchain graph is built from. Blocks are executed, never
// sealed: nothing here builds a header or a transaction root.
package chain

import (
	"encoding/binary"
	"sort"

	"ethpart/internal/evm"
	"ethpart/internal/trie"
	"ethpart/internal/types"
)

// Account is the state record of an address.
type Account struct {
	Balance evm.Word
	Nonce   uint64
	Code    []byte
	Storage map[evm.Word]evm.Word
}

// journalKind tags what a journal entry undoes.
type journalKind uint8

const (
	journalAccountCreated journalKind = iota
	journalBalance
	journalNonce
	journalCode
	journalStorage
	journalAccountDeleted
)

// journalEntry records how to undo one state mutation. It is a tagged
// value rather than a closure: the journal is the hottest allocation site
// of transaction execution, and a value entry in a reused slice costs no
// heap allocation per mutation where a closure costs one.
type journalEntry struct {
	kind journalKind
	addr types.Address
	// prevWord is the previous balance (journalBalance) or storage value
	// (journalStorage); key is the storage key.
	prevWord evm.Word
	key      evm.Word
	// existed reports whether the storage slot existed before the write.
	existed   bool
	prevNonce uint64
	prevCode  []byte
	prevAcc   *Account
}

// revert undoes one journaled mutation.
func (e *journalEntry) revert(s *State) {
	switch e.kind {
	case journalAccountCreated:
		delete(s.accounts, e.addr)
		s.forget(e.addr)
	case journalBalance:
		if a := s.lookup(e.addr); a != nil {
			a.Balance = e.prevWord
		}
	case journalNonce:
		if a := s.lookup(e.addr); a != nil {
			a.Nonce = e.prevNonce
		}
	case journalCode:
		if a := s.lookup(e.addr); a != nil {
			a.Code = e.prevCode
		}
	case journalStorage:
		a := s.lookup(e.addr)
		if a == nil {
			return
		}
		if a.Storage == nil {
			a.Storage = make(map[evm.Word]evm.Word)
		}
		if e.existed {
			a.Storage[e.key] = e.prevWord
		} else {
			delete(a.Storage, e.key)
		}
	case journalAccountDeleted:
		s.accounts[e.addr] = e.prevAcc
		s.forget(e.addr)
	}
}

// State is the world state: a map of accounts with a mutation journal that
// supports snapshot/revert, mirroring how a production node unwinds failed
// transactions. It implements evm.StateDB.
//
// State is not safe for concurrent use, and that includes concurrent
// readers: every getter goes through the account resolver (lookup), which
// writes the State.
type State struct {
	accounts map[types.Address]*Account
	journal  []journalEntry
	// held makes DiscardJournal keep undo history (HoldJournal).
	held bool
	// recent remembers the last two accounts resolved, most recent first.
	// A transaction touches its sender and recipient a dozen times through
	// separate StateDB calls; the pair turns all but the first probe of the
	// 20-byte-keyed map per address into an array compare. Only present
	// accounts are remembered, so creating one needs no invalidation;
	// every path that removes or replaces a map entry calls forget.
	recent [2]resolved
	// spare is the unused rest of the block new accounts are carved from
	// (newAccount).
	spare []Account
}

// accountBlock is how many accounts one allocation holds. A State carves
// each new account from its current block, so first sight of an address
// costs a heap object only once in accountBlock creations. A slot is used
// once: an account that a revert, DeleteAccount or TransplantAccount takes
// out of the map keeps its slot, and the block lives while any of its
// accounts is reachable — from this State or from the one it was
// transplanted to.
const accountBlock = 128

// resolved is one remembered address → account resolution.
type resolved struct {
	addr types.Address
	acc  *Account
}

var _ evm.StateDB = (*State)(nil)

// NewState returns an empty world state.
func NewState() *State {
	return &State{accounts: make(map[types.Address]*Account)}
}

// NewStateWithAlloc returns a state pre-funded with the given balances
// (the genesis allocation).
func NewStateWithAlloc(alloc map[types.Address]evm.Word) *State {
	s := NewState()
	for addr, bal := range alloc {
		acc := s.newAccount()
		acc.Balance = bal
		s.accounts[addr] = acc
	}
	return s
}

// Snapshot returns an identifier for the current journal position.
func (s *State) Snapshot() int { return len(s.journal) }

// RevertToSnapshot unwinds all mutations made after snapshot id.
func (s *State) RevertToSnapshot(id int) {
	for i := len(s.journal) - 1; i >= id; i-- {
		s.journal[i].revert(s)
	}
	s.journal = s.journal[:id]
}

// DiscardJournal drops undo history (called after a transaction commits).
// Under a hold it keeps it.
func (s *State) DiscardJournal() {
	if !s.held {
		s.journal = s.journal[:0]
	}
}

// HoldJournal starts a hold on an empty journal: until ReleaseJournal,
// DiscardJournal keeps undo history, so RevertToSnapshot(0) unwinds every
// journaled mutation since the hold began — committed transactions
// included. It is how a crashed shard's block is rolled back. A transplant
// is not journaled (TransplantAccount), so a hold it touched cannot be
// undone.
func (s *State) HoldJournal() {
	s.journal = s.journal[:0]
	s.held = true
}

// ReleaseJournal ends a hold and drops its undo history.
func (s *State) ReleaseJournal() {
	s.held = false
	s.journal = s.journal[:0]
}

// lookup resolves addr to its account, or nil when there is none. It is the
// one place the accounts map is probed by address.
func (s *State) lookup(addr types.Address) *Account {
	r := &s.recent
	if r[0].acc != nil && r[0].addr == addr {
		return r[0].acc
	}
	if r[1].acc != nil && r[1].addr == addr {
		r[0], r[1] = r[1], r[0]
		return r[0].acc
	}
	acc := s.accounts[addr]
	if acc != nil {
		r[1] = r[0]
		r[0] = resolved{addr, acc}
	}
	return acc
}

// forget drops addr from the resolver; called wherever accounts loses or
// replaces the entry for addr.
func (s *State) forget(addr types.Address) {
	for i := range s.recent {
		if s.recent[i].addr == addr {
			s.recent[i] = resolved{}
		}
	}
}

// getOrNew returns the account for addr, creating and journaling it if
// missing.
func (s *State) getOrNew(addr types.Address) *Account {
	if acc := s.lookup(addr); acc != nil {
		return acc
	}
	acc := s.newAccount()
	s.accounts[addr] = acc
	s.journal = append(s.journal, journalEntry{kind: journalAccountCreated, addr: addr})
	return acc
}

// newAccount returns a zero account carved from the current block, cutting
// a new block when it is used up (accountBlock).
func (s *State) newAccount() *Account {
	if len(s.spare) == 0 {
		s.spare = make([]Account, accountBlock)
	}
	acc := &s.spare[0]
	s.spare = s.spare[1:]
	return acc
}

// Exist implements evm.StateDB.
func (s *State) Exist(addr types.Address) bool { return s.lookup(addr) != nil }

// CreateAccount implements evm.StateDB.
func (s *State) CreateAccount(addr types.Address) { s.getOrNew(addr) }

// GetBalance implements evm.StateDB.
func (s *State) GetBalance(addr types.Address) evm.Word {
	if acc := s.lookup(addr); acc != nil {
		return acc.Balance
	}
	return evm.Word{}
}

// AddBalance implements evm.StateDB.
func (s *State) AddBalance(addr types.Address, amount evm.Word) {
	acc := s.getOrNew(addr)
	prev := acc.Balance
	acc.Balance = acc.Balance.Add(amount)
	s.journal = append(s.journal, journalEntry{kind: journalBalance, addr: addr, prevWord: prev})
}

// SubBalance implements evm.StateDB.
func (s *State) SubBalance(addr types.Address, amount evm.Word) {
	acc := s.getOrNew(addr)
	prev := acc.Balance
	acc.Balance = acc.Balance.Sub(amount)
	s.journal = append(s.journal, journalEntry{kind: journalBalance, addr: addr, prevWord: prev})
}

// GetNonce implements evm.StateDB.
func (s *State) GetNonce(addr types.Address) uint64 {
	if acc := s.lookup(addr); acc != nil {
		return acc.Nonce
	}
	return 0
}

// SetNonce implements evm.StateDB.
func (s *State) SetNonce(addr types.Address, nonce uint64) {
	acc := s.getOrNew(addr)
	prev := acc.Nonce
	acc.Nonce = nonce
	s.journal = append(s.journal, journalEntry{kind: journalNonce, addr: addr, prevNonce: prev})
}

// GetCode implements evm.StateDB.
func (s *State) GetCode(addr types.Address) []byte {
	if acc := s.lookup(addr); acc != nil {
		return acc.Code
	}
	return nil
}

// SetCode implements evm.StateDB.
func (s *State) SetCode(addr types.Address, code []byte) {
	acc := s.getOrNew(addr)
	prev := acc.Code
	acc.Code = code
	s.journal = append(s.journal, journalEntry{kind: journalCode, addr: addr, prevCode: prev})
}

// GetState implements evm.StateDB.
func (s *State) GetState(addr types.Address, key evm.Word) evm.Word {
	if acc := s.lookup(addr); acc != nil && acc.Storage != nil {
		return acc.Storage[key]
	}
	return evm.Word{}
}

// SetState implements evm.StateDB.
func (s *State) SetState(addr types.Address, key, value evm.Word) {
	acc := s.getOrNew(addr)
	if acc.Storage == nil {
		acc.Storage = make(map[evm.Word]evm.Word)
	}
	prev, existed := acc.Storage[key]
	if value.IsZero() {
		delete(acc.Storage, key) // zero writes clear the slot, as in Ethereum
	} else {
		acc.Storage[key] = value
	}
	s.journal = append(s.journal, journalEntry{
		kind: journalStorage, addr: addr, key: key, prevWord: prev, existed: existed,
	})
}

// DeleteAccount removes addr from the state entirely — balance, nonce,
// code and every storage slot — journaling the removal so it reverts like
// any other mutation. It is the purge half of a cross-shard migration: the
// source shard must not keep a ghost copy of the account.
func (s *State) DeleteAccount(addr types.Address) {
	acc := s.lookup(addr)
	if acc == nil {
		return
	}
	delete(s.accounts, addr)
	s.forget(addr)
	s.journal = append(s.journal, journalEntry{kind: journalAccountDeleted, addr: addr, prevAcc: acc})
}

// StorageSize implements evm.StateDB.
func (s *State) StorageSize(addr types.Address) int {
	if acc := s.lookup(addr); acc != nil {
		return len(acc.Storage)
	}
	return 0
}

// AccountCount returns the number of accounts in the state.
func (s *State) AccountCount() int { return len(s.accounts) }

// encodeAccount serializes an account for the state trie: balance, nonce,
// code hash and a digest of the sorted storage slots. Any change to an
// account changes its encoding and therefore the state root.
func encodeAccount(acc *Account) []byte {
	buf := make([]byte, 0, 32+8+types.HashLen*2)
	bal := acc.Balance.Bytes32()
	buf = append(buf, bal[:]...)
	var nonce [8]byte
	binary.BigEndian.PutUint64(nonce[:], acc.Nonce)
	buf = append(buf, nonce[:]...)
	codeHash := types.HashData(acc.Code)
	buf = append(buf, codeHash[:]...)
	storageHash := hashStorage(acc.Storage)
	buf = append(buf, storageHash[:]...)
	return buf
}

// hashStorage digests storage slots in sorted key order so the result is
// deterministic.
func hashStorage(storage map[evm.Word]evm.Word) types.Hash {
	if len(storage) == 0 {
		return types.Hash{}
	}
	keys := make([]evm.Word, 0, len(storage))
	for k := range storage {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Cmp(keys[j]) < 0 })
	parts := make([][]byte, 0, 2*len(keys))
	for _, k := range keys {
		kb, vb := k.Bytes32(), storage[k].Bytes32()
		parts = append(parts, kb[:], vb[:])
	}
	return types.HashConcat(parts...)
}

// EachStorage calls fn for every storage slot of addr until fn returns
// false. Iteration order is unspecified.
func (s *State) EachStorage(addr types.Address, fn func(key, value evm.Word) bool) {
	acc := s.lookup(addr)
	if acc == nil {
		return
	}
	for k, v := range acc.Storage {
		if !fn(k, v) {
			return
		}
	}
}

// CopyStorage copies every storage slot of addr from src to dst and
// returns the number of slots copied — the state-payload of migrating a
// contract between shards.
func CopyStorage(src, dst *State, addr types.Address) int {
	n := 0
	src.EachStorage(addr, func(k, v evm.Word) bool {
		dst.SetState(addr, k, v)
		n++
		return true
	})
	return n
}

// TransplantAccount moves addr's account — balance, nonce, code and every
// storage slot — from src to dst by re-parenting the one *Account, and
// returns the number of storage slots that moved with it (zero writes delete
// their slot, so the map holds exactly the live ones). It is the whole of a
// cross-shard migration when addr has state on the source only: nothing is
// copied, nothing is left behind, and neither journal gains an entry — so it
// cannot be reverted, and callers discard both journals as a migration
// always has. It reports false, moving nothing, when src has no such account
// or dst already holds one; merging two accounts is the caller's business.
func TransplantAccount(src, dst *State, addr types.Address) (slots int, ok bool) {
	acc := src.lookup(addr)
	if acc == nil || dst.lookup(addr) != nil {
		return 0, false
	}
	delete(src.accounts, addr)
	src.forget(addr)
	dst.accounts[addr] = acc
	return len(acc.Storage), true
}

// Commit computes the Merkle root of the whole state. It is O(accounts) and
// meant for checkpoints and comparisons, not per transaction.
func (s *State) Commit() types.Hash {
	t := trie.New()
	for addr, acc := range s.accounts {
		t.Put(addr[:], encodeAccount(acc))
	}
	return t.Root()
}
