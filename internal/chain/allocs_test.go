//go:build !race

package chain

import (
	"testing"

	"ethpart/internal/evm"
	"ethpart/internal/types"
)

// Allocation ceilings (the race detector instruments allocations, hence the
// build tag): what a plain transfer and a state access cost in heap
// objects, pinned so it does not erode. DESIGN §7, "What a record costs".

// TestAllocsApplyTransaction: a plain transfer between existing accounts
// allocates its receipt and the one-entry trace the VM hands to it —
// nothing for the hash, the VM, the journal or the account lookups.
func TestAllocsApplyTransaction(t *testing.T) {
	s := fundedState()
	s.AddBalance(recv, evm.WordFromUint64(1))
	s.AddBalance(miner, evm.WordFromUint64(1))
	s.DiscardJournal()
	tx := transferTx(0, 1)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := ApplyTransaction(s, tx, miner); err != nil {
			t.Fatal(err)
		}
		tx.Nonce++
	})
	if allocs > 2 {
		t.Errorf("ApplyTransaction of a plain transfer: %v allocs, want <= 2", allocs)
	}
}

// TestAllocsApplyTransactionInto: the same transfer written into a reused
// receipt allocates nothing — the VM records the one-entry trace into the
// receipt's old trace array.
func TestAllocsApplyTransactionInto(t *testing.T) {
	s := fundedState()
	s.AddBalance(recv, evm.WordFromUint64(1))
	s.AddBalance(miner, evm.WordFromUint64(1))
	s.DiscardJournal()
	tx := transferTx(0, 1)
	var receipt Receipt
	allocs := testing.AllocsPerRun(200, func() {
		if err := ApplyTransactionInto(s, tx, miner, nil, &receipt); err != nil {
			t.Fatal(err)
		}
		tx.Nonce++
	})
	if allocs != 0 {
		t.Errorf("ApplyTransactionInto of a plain transfer into a reused receipt: %v allocs, want 0", allocs)
	}
	if !receipt.Success || len(receipt.Traces) != 1 {
		t.Errorf("last receipt: success %v, %d traces; want a success with 1", receipt.Success, len(receipt.Traces))
	}
}

// TestAllocsStateAccess: reading or crediting an existing account allocates
// nothing (the journal entry lands in the reused journal slice).
func TestAllocsStateAccess(t *testing.T) {
	s := fundedState()
	other := types.AddressFromSeq(3)
	s.AddBalance(other, evm.WordFromUint64(1))
	s.DiscardJournal()
	var sink evm.Word
	if allocs := testing.AllocsPerRun(200, func() {
		sink = sink.Add(s.GetBalance(sender)).Add(s.GetBalance(other))
	}); allocs != 0 {
		t.Errorf("GetBalance: %v allocs, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		s.AddBalance(sender, evm.WordFromUint64(1))
		s.AddBalance(other, evm.WordFromUint64(1))
		s.DiscardJournal()
	}); allocs != 0 {
		t.Errorf("AddBalance: %v allocs, want 0", allocs)
	}
}
