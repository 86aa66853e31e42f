//go:build !race

package chain

import (
	"testing"

	"ethpart/internal/evm"
	"ethpart/internal/types"
)

// Allocation ceilings (the race detector instruments allocations, hence the
// build tag): what a block of transfers, a transfer and a state access cost
// in heap objects, pinned so it does not erode. DESIGN §7, "What a record costs".

// TestAllocsExecuteBlock: a block of 64 plain transfers between existing
// accounts allocates its receipt slab and the one-entry trace the VM hands
// to each receipt — nothing for the hashes, the VMs, the journal, the
// account lookups or the block reward. Measured: 65 (64 traces + 1 slab).
func TestAllocsExecuteBlock(t *testing.T) {
	const n = 64
	s := fundedState()
	s.AddBalance(recv, evm.WordFromUint64(1))
	s.AddBalance(miner, evm.WordFromUint64(1))
	s.DiscardJournal()
	txs := make([]*Transaction, n)
	for i := range txs {
		txs[i] = transferTx(uint64(i), 1)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if x := ExecuteBlock(s, miner, blockGasLimit, txs); len(x.Receipts) != n {
			t.Fatalf("%d receipts, skipped %v", len(x.Receipts), x.Skipped)
		}
		for _, tx := range txs {
			tx.Nonce += n
		}
	})
	if allocs > n+1 {
		t.Errorf("ExecuteBlock of %d plain transfers: %v allocs, want <= %d (a trace each + the receipt slab)", n, allocs, n+1)
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
