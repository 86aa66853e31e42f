package chain

import (
	"bytes"
	"math/rand"
	"testing"

	"ethpart/internal/evm"
	"ethpart/internal/types"
)

// The oracle for State: a plain map of account structs with no journal and
// no resolver. Snapshots are deep copies of the whole map, so a revert is
// "put the copy back" — nothing it shares with the implementation's
// journal-and-resolver machinery can be wrong in the same way.

type oracleAccount struct {
	balance evm.Word
	nonce   uint64
	code    []byte
	storage map[evm.Word]evm.Word
}

type oracleState map[types.Address]*oracleAccount

func (o oracleState) clone() oracleState {
	c := make(oracleState, len(o))
	for addr, a := range o {
		ca := &oracleAccount{balance: a.balance, nonce: a.nonce, code: a.code,
			storage: make(map[evm.Word]evm.Word, len(a.storage))}
		for k, v := range a.storage {
			ca.storage[k] = v
		}
		c[addr] = ca
	}
	return c
}

func (o oracleState) getOrNew(addr types.Address) *oracleAccount {
	a, ok := o[addr]
	if !ok {
		a = &oracleAccount{storage: make(map[evm.Word]evm.Word)}
		o[addr] = a
	}
	return a
}

// root commits the oracle's content through a fresh State that has no
// history: no journal entries, nothing remembered.
func (o oracleState) root() types.Hash {
	s := NewState()
	for addr, a := range o {
		acc := &Account{Balance: a.balance, Nonce: a.nonce, Code: a.code}
		if len(a.storage) > 0 {
			acc.Storage = make(map[evm.Word]evm.Word, len(a.storage))
			for k, v := range a.storage {
				acc.Storage[k] = v
			}
		}
		s.accounts[addr] = acc
	}
	return s.Commit()
}

// oracleSnap is one outstanding snapshot: the implementation's id and the
// oracle's content at that point.
type oracleSnap struct {
	id   int
	want oracleState
}

// pairedState is a State with its oracle and the snapshots taken since the
// journal was last discarded.
type pairedState struct {
	s     *State
	o     oracleState
	snaps []oracleSnap
}

func (p *pairedState) discard() {
	p.s.DiscardJournal()
	p.snaps = nil
}

// check compares every getter over the address and key universes (in a
// random order, so the resolver is read in every state it can be in) and
// the state root.
func (p *pairedState) check(t *testing.T, rng *rand.Rand, addrs []types.Address, keys []evm.Word, step int, what string) {
	t.Helper()
	for _, i := range rng.Perm(len(addrs)) {
		addr := addrs[i]
		a, exists := p.o[addr]
		if a == nil {
			a = &oracleAccount{}
		}
		if got := p.s.Exist(addr); got != exists {
			t.Fatalf("step %d (%s): Exist(%v) = %v, oracle %v", step, what, addr, got, exists)
		}
		if got := p.s.GetBalance(addr); got != a.balance {
			t.Fatalf("step %d (%s): GetBalance(%v) = %v, oracle %v", step, what, addr, got, a.balance)
		}
		if got := p.s.GetNonce(addr); got != a.nonce {
			t.Fatalf("step %d (%s): GetNonce(%v) = %d, oracle %d", step, what, addr, got, a.nonce)
		}
		if got := p.s.GetCode(addr); !bytes.Equal(got, a.code) {
			t.Fatalf("step %d (%s): GetCode(%v) = %x, oracle %x", step, what, addr, got, a.code)
		}
		if got := p.s.StorageSize(addr); got != len(a.storage) {
			t.Fatalf("step %d (%s): StorageSize(%v) = %d, oracle %d", step, what, addr, got, len(a.storage))
		}
		for _, k := range keys {
			if got := p.s.GetState(addr, k); got != a.storage[k] {
				t.Fatalf("step %d (%s): GetState(%v, %v) = %v, oracle %v", step, what, addr, k, got, a.storage[k])
			}
		}
	}
	// A handle resolves to the account the map holds, or to nothing: no
	// entry outlives its account's removal, revert or transplant.
	for h, acc := range p.s.byID {
		if acc != nil && (h == 0 || h > len(addrs) || p.s.accounts[addrs[h-1]] != acc) {
			t.Fatalf("step %d (%s): handle %d resolves to an account the map does not hold there", step, what, h)
		}
	}
	if got := len(p.s.accounts); got != len(p.o) {
		t.Fatalf("step %d (%s): %d accounts, oracle %d", step, what, got, len(p.o))
	}
	if got, want := p.s.Commit(), p.o.root(); got != want {
		t.Fatalf("step %d (%s): Commit = %v, oracle %v", step, what, got, want)
	}
}

// carving tracks which account block (accountBlock) each account was
// carved from, so the property test can show that creates, reverts of
// creates and transplants happen both in a State's first block and in a
// later one. A State's k-th carved account (from 0) is in its block
// k / accountBlock.
type carving struct {
	carved map[*State]int    // accounts carved so far
	block  map[*Account]int  // the block an account was carved from, 0 first
	hit    map[string][2]int // event → count in the first block, in a later one
}

func newCarving() *carving {
	return &carving{carved: map[*State]int{}, block: map[*Account]int{}, hit: map[string][2]int{}}
}

func (c *carving) count(event string, acc *Account) {
	b, ok := c.block[acc]
	if !ok {
		return
	}
	h := c.hit[event]
	h[min(b, 1)]++
	c.hit[event] = h
}

// created records the account an operation on s carved for addr, if it
// carved one: only getOrNew carves, for the address operated on, and the
// account it carved is one no State has held before.
func (c *carving) created(s *State, addr types.Address) {
	acc := s.accounts[addr]
	if _, seen := c.block[acc]; acc == nil || seen {
		return
	}
	c.block[acc] = c.carved[s] / accountBlock
	c.carved[s]++
	c.count("create", acc)
}

// revert runs revert on s and counts every account it un-created: one that
// was in the map before and is gone, or replaced, after.
func (c *carving) revert(s *State, revert func()) {
	before := make(map[types.Address]*Account, len(s.accounts))
	for addr, acc := range s.accounts {
		before[addr] = acc
	}
	revert()
	for addr, acc := range before {
		if s.accounts[addr] != acc {
			c.count("revert of create", acc)
		}
	}
}

// TestPropertyStateMatchesOracle drives two States through random
// mutations, snapshots, reverts, journal discards, held blocks and account
// transplants between them, against the oracle, checking every getter and
// the root after each step. A held block holds one State's journal, runs
// random operations — nested snapshots, discards, deletes and transplants
// among them — and releases the hold, unwinding the whole block to the
// oracle's copy from the hold's start half of the time: a crashed shard's
// rollback. A transplant is not journaled, so a block in which one moved an
// account is always released without undo. The universe is six addresses
// (the zero address among them — the sharded engine's miner) so the
// two-entry resolver is always being evicted, re-filled and invalidated;
// the cases that bite are revert-of-create and delete-then-recreate of a
// remembered address. A State carves about 85 accounts in a run, so each
// starts with a random share of its first account block used up (an
// account outside the universe created and deleted), which puts a block
// boundary at a random point of most runs; the test requires a create, a
// revert of a create and a transplant of an account from a State's first
// block and of one from a later block.
func TestPropertyStateMatchesOracle(t *testing.T) {
	addrs := []types.Address{{}}
	for i := uint64(1); i <= 5; i++ {
		addrs = append(addrs, types.AddressFromSeq(i))
	}
	keys := []evm.Word{evm.WordFromUint64(1), evm.WordFromUint64(2), evm.WordFromUint64(3)}
	carved := newCarving()

	for seed := int64(1); seed <= 20; seed++ {
		t.Logf("seed %d", seed) // printed with a failure, which names only the step
		rng := rand.New(rand.NewSource(seed))
		ps := [2]*pairedState{
			{s: NewState(), o: oracleState{}},
			{s: NewState(), o: oracleState{}},
		}
		burn := types.AddressFromSeq(99)
		for _, p := range ps {
			for n := rng.Intn(accountBlock); n > 0; n-- {
				p.s.CreateAccount(burn)
				carved.created(p.s, burn)
				p.s.DeleteAccount(burn)
			}
			p.s.DiscardJournal()
		}
		check := func(step int, what string) {
			t.Helper()
			for _, q := range ps {
				q.check(t, rng, addrs, keys, step, what)
			}
		}
		// op applies one random operation to a random State and its oracle,
		// reporting whether it was a transplant that moved an account.
		op := func(step int) (what string, moved bool) {
			p := ps[rng.Intn(2)]
			addr := addrs[rng.Intn(len(addrs))]
			amount := evm.WordFromUint64(uint64(rng.Intn(50)))
			defer carved.created(p.s, addr)
			switch rng.Intn(15) {
			case 0, 1:
				p.s.AddBalance(addr, amount)
				a := p.o.getOrNew(addr)
				a.balance = a.balance.Add(amount)
				return "AddBalance", false
			case 2:
				p.s.SubBalance(addr, amount)
				a := p.o.getOrNew(addr)
				a.balance = a.balance.Sub(amount)
				return "SubBalance", false
			case 3:
				n := uint64(rng.Intn(9))
				p.s.SetNonce(addr, n)
				p.o.getOrNew(addr).nonce = n
				return "SetNonce", false
			case 4:
				code := []byte{byte(rng.Intn(256)), byte(step)}
				p.s.SetCode(addr, code)
				p.o.getOrNew(addr).code = code
				return "SetCode", false
			case 5, 6:
				k := keys[rng.Intn(len(keys))]
				v := evm.WordFromUint64(uint64(rng.Intn(3))) // zero a third of the time
				p.s.SetState(addr, k, v)
				a := p.o.getOrNew(addr)
				if v.IsZero() {
					delete(a.storage, k)
				} else {
					a.storage[k] = v
				}
				return "SetState", false
			case 7:
				p.s.CreateAccount(addr)
				p.o.getOrNew(addr)
				return "CreateAccount", false
			case 8, 9:
				p.s.DeleteAccount(addr)
				delete(p.o, addr)
				return "DeleteAccount", false
			case 10:
				p.snaps = append(p.snaps, oracleSnap{id: p.s.Snapshot(), want: p.o.clone()})
				return "Snapshot", false
			case 11, 12:
				if len(p.snaps) == 0 {
					return "RevertToSnapshot (none taken)", false
				}
				i := rng.Intn(len(p.snaps))
				carved.revert(p.s, func() { p.s.RevertToSnapshot(p.snaps[i].id) })
				p.o = p.snaps[i].want
				p.snaps = p.snaps[:i]
				return "RevertToSnapshot", false
			case 13:
				if rng.Intn(2) == 0 {
					p.discard()
					return "DiscardJournal", false
				}
				src, dst := ps[0], ps[1]
				if rng.Intn(2) == 0 {
					src, dst = dst, src
				}
				slots, moved := TransplantAccount(src.s, dst.s, addr)
				a, inSrc := src.o[addr]
				_, inDst := dst.o[addr]
				if want := inSrc && !inDst; moved != want {
					t.Fatalf("step %d: TransplantAccount moved = %v, oracle %v", step, moved, want)
				}
				if moved {
					if slots != len(a.storage) {
						t.Fatalf("step %d: TransplantAccount slots = %d, oracle %d", step, slots, len(a.storage))
					}
					delete(src.o, addr)
					dst.o[addr] = a
					carved.count("transplant", dst.s.accounts[addr])
				}
				// A transplant is not journaled; its callers discard both
				// journals, as a migration always has.
				src.discard()
				dst.discard()
				return "TransplantAccount", moved
			case 14:
				// Both States name addrs[i] by handle i+1, as the shards of
				// one chain share a registry.
				i := rng.Intn(len(addrs))
				p.s.Prime(HandleOf(uint64(i)), addrs[i])
				return "Prime", false
			}
			panic("unreachable")
		}
		for step := 0; step < 600; step++ {
			if rng.Intn(8) != 0 {
				what, _ := op(step)
				check(step, what)
				continue
			}
			p := ps[rng.Intn(2)]
			p.s.HoldJournal()
			p.snaps = nil // a hold starts on an empty journal
			base := p.o.clone()
			transplanted := false
			for n := rng.Intn(24); n > 0; n-- {
				what, moved := op(step)
				transplanted = transplanted || moved
				check(step, "held "+what)
			}
			what := "ReleaseJournal"
			if !transplanted && rng.Intn(2) == 0 {
				what = "RevertToSnapshot(0), ReleaseJournal"
				carved.revert(p.s, func() { p.s.RevertToSnapshot(0) })
				p.o = base
			}
			p.s.ReleaseJournal()
			p.snaps = nil
			check(step, what)
		}
	}
	for _, event := range []string{"create", "revert of create", "transplant"} {
		h := carved.hit[event]
		t.Logf("%s: %d in a first account block, %d in a later one", event, h[0], h[1])
		if h[0] == 0 || h[1] == 0 {
			t.Errorf("%s: %d in a first account block, %d in a later one; want both", event, h[0], h[1])
		}
	}
}
