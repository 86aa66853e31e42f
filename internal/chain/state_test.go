package chain

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ethpart/internal/evm"
	"ethpart/internal/types"
)

var (
	addrA = types.AddressFromSeq(100)
	addrB = types.AddressFromSeq(101)
)

func TestStateBalanceOps(t *testing.T) {
	s := NewState()
	if !s.GetBalance(addrA).IsZero() {
		t.Error("fresh account must have zero balance")
	}
	s.AddBalance(addrA, evm.WordFromUint64(50))
	s.SubBalance(addrA, evm.WordFromUint64(20))
	if got := s.GetBalance(addrA).Uint64(); got != 30 {
		t.Errorf("balance = %d, want 30", got)
	}
}

func TestStateNonceAndCode(t *testing.T) {
	s := NewState()
	s.SetNonce(addrA, 7)
	if got := s.GetNonce(addrA); got != 7 {
		t.Errorf("nonce = %d, want 7", got)
	}
	code := []byte{1, 2, 3}
	s.SetCode(addrA, code)
	if got := s.GetCode(addrA); len(got) != 3 {
		t.Errorf("code = %v", got)
	}
}

func TestStateStorageZeroClears(t *testing.T) {
	s := NewState()
	key := evm.WordFromUint64(1)
	s.SetState(addrA, key, evm.WordFromUint64(9))
	if s.StorageSize(addrA) != 1 {
		t.Fatalf("StorageSize = %d, want 1", s.StorageSize(addrA))
	}
	s.SetState(addrA, key, evm.Word{})
	if s.StorageSize(addrA) != 0 {
		t.Errorf("zero write must clear the slot, size = %d", s.StorageSize(addrA))
	}
}

func TestSnapshotRevert(t *testing.T) {
	s := NewState()
	s.AddBalance(addrA, evm.WordFromUint64(100))
	s.DiscardJournal()

	snap := s.Snapshot()
	s.SubBalance(addrA, evm.WordFromUint64(60))
	s.AddBalance(addrB, evm.WordFromUint64(60))
	s.SetNonce(addrA, 5)
	s.SetState(addrB, evm.WordFromUint64(1), evm.WordFromUint64(42))
	s.SetCode(addrB, []byte{0xfe})

	s.RevertToSnapshot(snap)

	if got := s.GetBalance(addrA).Uint64(); got != 100 {
		t.Errorf("addrA balance after revert = %d, want 100", got)
	}
	if s.Exist(addrB) {
		t.Error("account created inside reverted scope must disappear")
	}
	if s.GetNonce(addrA) != 0 {
		t.Error("nonce change must be reverted")
	}
}

func TestDeleteAccountPurgesAndReverts(t *testing.T) {
	s := NewState()
	s.AddBalance(addrA, evm.WordFromUint64(100))
	s.SetNonce(addrA, 4)
	s.SetCode(addrA, []byte{0xfe})
	s.SetState(addrA, evm.WordFromUint64(1), evm.WordFromUint64(42))
	s.DiscardJournal()

	snap := s.Snapshot()
	s.DeleteAccount(addrA)
	if s.Exist(addrA) {
		t.Fatal("deleted account must not exist")
	}
	if s.GetNonce(addrA) != 0 || s.GetCode(addrA) != nil || s.StorageSize(addrA) != 0 {
		t.Fatal("deleted account must leave no nonce, code or storage behind")
	}

	s.RevertToSnapshot(snap)
	if !s.Exist(addrA) {
		t.Fatal("revert must restore the deleted account")
	}
	if got := s.GetBalance(addrA).Uint64(); got != 100 {
		t.Errorf("restored balance = %d, want 100", got)
	}
	if s.GetNonce(addrA) != 4 || len(s.GetCode(addrA)) != 1 {
		t.Error("restored nonce/code wrong")
	}
	if got := s.GetState(addrA, evm.WordFromUint64(1)).Uint64(); got != 42 {
		t.Errorf("restored storage slot = %d, want 42", got)
	}

	// Deleting a missing account is a no-op and journals nothing.
	pre := s.Snapshot()
	s.DeleteAccount(addrB)
	if s.Snapshot() != pre {
		t.Error("deleting a missing account must not journal")
	}
}

func TestNestedSnapshots(t *testing.T) {
	s := NewState()
	s.AddBalance(addrA, evm.WordFromUint64(10))
	s.DiscardJournal()

	outer := s.Snapshot()
	s.AddBalance(addrA, evm.WordFromUint64(1))
	inner := s.Snapshot()
	s.AddBalance(addrA, evm.WordFromUint64(2))
	s.RevertToSnapshot(inner)
	if got := s.GetBalance(addrA).Uint64(); got != 11 {
		t.Fatalf("after inner revert balance = %d, want 11", got)
	}
	s.RevertToSnapshot(outer)
	if got := s.GetBalance(addrA).Uint64(); got != 10 {
		t.Fatalf("after outer revert balance = %d, want 10", got)
	}
}

func TestCommitChangesWithState(t *testing.T) {
	s := NewState()
	r0 := s.Commit()
	s.AddBalance(addrA, evm.WordFromUint64(1))
	r1 := s.Commit()
	if r0 == r1 {
		t.Error("state root must change when a balance changes")
	}
	s.SetState(addrA, evm.WordFromUint64(1), evm.WordFromUint64(2))
	r2 := s.Commit()
	if r1 == r2 {
		t.Error("state root must change when storage changes")
	}
}

func TestCommitDeterministic(t *testing.T) {
	build := func(order []uint64) types.Hash {
		s := NewState()
		for _, i := range order {
			addr := types.AddressFromSeq(i)
			s.AddBalance(addr, evm.WordFromUint64(i))
			s.SetState(addr, evm.WordFromUint64(i), evm.WordFromUint64(i*2))
		}
		return s.Commit()
	}
	if build([]uint64{1, 2, 3, 4}) != build([]uint64{4, 2, 3, 1}) {
		t.Error("state root must be independent of mutation order for the same final state")
	}
}

func TestPropertySnapshotRevertIsIdentity(t *testing.T) {
	// Property: a random mutation batch wrapped in snapshot/revert leaves
	// the state root unchanged.
	f := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewState()
		// Base state.
		for i := 0; i < 10; i++ {
			s.AddBalance(types.AddressFromSeq(uint64(i)), evm.WordFromUint64(uint64(rng.Intn(1000))))
		}
		s.DiscardJournal()
		before := s.Commit()

		snap := s.Snapshot()
		ops := int(opsRaw%60) + 1
		for i := 0; i < ops; i++ {
			addr := types.AddressFromSeq(uint64(rng.Intn(20)))
			switch rng.Intn(5) {
			case 0:
				s.AddBalance(addr, evm.WordFromUint64(uint64(rng.Intn(100))))
			case 1:
				s.SubBalance(addr, evm.WordFromUint64(uint64(rng.Intn(100))))
			case 2:
				s.SetNonce(addr, uint64(rng.Intn(100)))
			case 3:
				s.SetState(addr, evm.WordFromUint64(uint64(rng.Intn(5))), evm.WordFromUint64(uint64(rng.Intn(100))))
			case 4:
				s.SetCode(addr, []byte{byte(rng.Intn(256))})
			}
		}
		s.RevertToSnapshot(snap)
		return s.Commit() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
