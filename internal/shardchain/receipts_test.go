package shardchain

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"ethpart/internal/chain"
	"ethpart/internal/evm"
	"ethpart/internal/types"
)

// TestReusedReceiptCarriesNothingOver: Step rewrites its receipts in place,
// so one slot goes through four kinds of block — a contract creation whose
// init code calls bob (two traces and a ContractAddress), a local
// nonce-mismatch rejection, a cross-shard emit and a plain local transfer
// — and after each the reused receipt must equal the one a chain with no
// receipts to reuse builds for the same block, field by field. A second
// creation and cross emit follow, so each path overwrites a receipt that
// executed as well as one that did not. The slot keeps one trace array
// throughout, whichever path wrote it.
func TestReusedReceiptCarriesNothingOver(t *testing.T) {
	initCode := evm.NewAssembler().
		Push(0).Push(0).Push(0).Push(0). // outSize, outOff, inSize, inOff
		Push(0).PushAddress(bob).Push(100_000).
		Op(evm.CALL, evm.POP, evm.STOP).MustBytes()
	type block struct {
		what string
		tx   *chain.Transaction
		want func(r *chain.Receipt) error
	}
	creation := func(nonce uint64) block {
		return block{"creation", &chain.Transaction{Nonce: nonce, From: alice, Data: initCode, GasLimit: 1_000_000, GasPrice: 1},
			func(r *chain.Receipt) error {
				if !r.Success || r.ContractAddress == nil || len(r.Traces) != 2 {
					return fmt.Errorf("want a success with a contract address and 2 traces")
				}
				return nil
			}}
	}
	crossEmit := func(nonce uint64) block {
		return block{"cross emit", transfer(nonce, alice, carol, 1),
			func(r *chain.Receipt) error {
				if !r.Success || r.GasUsed != 0 || len(r.Traces) != 0 {
					return fmt.Errorf("want a success with no gas and no traces")
				}
				return nil
			}}
	}
	blocks := []block{
		creation(0),
		{"nonce mismatch", transfer(7, alice, bob, 1),
			func(r *chain.Receipt) error {
				if !errors.Is(r.Err, chain.ErrNonceMismatch) || len(r.Traces) != 0 {
					return fmt.Errorf("want a nonce-mismatch rejection with no traces")
				}
				return nil
			}},
		crossEmit(1),
		{"local transfer", transfer(2, alice, bob, 1),
			func(r *chain.Receipt) error {
				if !r.Success || r.ContractAddress != nil || len(r.Traces) != 1 {
					return fmt.Errorf("want a success with 1 trace and no contract address")
				}
				return nil
			}},
		creation(3),
		crossEmit(4),
	}
	for _, parallel := range []bool{false, true} {
		t.Run(fmt.Sprintf("parallel=%v", parallel), func(t *testing.T) {
			mk := func() *ShardChain {
				sc, err := newChain(Config{K: 2, Model: ModelReceipts, Parallel: parallel},
					map[types.Address]evm.Word{alice: evm.WordFromUint64(1 << 40), bob: evm.WordFromUint64(1)},
					map[types.Address]int{alice: 0, bob: 0, carol: 1})
				if err != nil {
					t.Fatal(err)
				}
				return sc
			}
			reused, fresh := mk(), mk()
			var slot *chain.Receipt
			var traces *evm.CallTrace
			for b, blk := range blocks {
				fresh.slab, fresh.receipts = nil, nil
				got := reused.Step([]*chain.Transaction{blk.tx})[0]
				want := fresh.Step([]*chain.Transaction{blk.tx})[0]
				if err := blk.want(want); err != nil {
					t.Fatalf("block %d (%s): fresh receipt %+v: %v", b, blk.what, want, err)
				}
				if err := sameReceipt(got, want); err != nil {
					t.Errorf("block %d (%s): %v\nreused: %+v\nfresh:  %+v", b, blk.what, err, got, want)
				}
				if b == 0 {
					slot, traces = got, &got.Traces[0]
					continue
				}
				if got != slot {
					t.Errorf("block %d (%s): receipt slot moved", b, blk.what)
				}
				if cap(got.Traces) == 0 || &got.Traces[:1][0] != traces {
					t.Errorf("block %d (%s): the slot's trace array was not kept", b, blk.what)
				}
			}
		})
	}
}

// sameReceipt compares every field of two receipts; errors by message, as
// each rejection builds its own.
func sameReceipt(got, want *chain.Receipt) error {
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	switch {
	case got.Success != want.Success:
		return fmt.Errorf("Success %v, want %v", got.Success, want.Success)
	case errText(got.Err) != errText(want.Err):
		return fmt.Errorf("Err %v, want %v", got.Err, want.Err)
	case got.GasUsed != want.GasUsed:
		return fmt.Errorf("GasUsed %d, want %d", got.GasUsed, want.GasUsed)
	case (got.ContractAddress == nil) != (want.ContractAddress == nil) ||
		got.ContractAddress != nil && *got.ContractAddress != *want.ContractAddress:
		return fmt.Errorf("ContractAddress %v, want %v", got.ContractAddress, want.ContractAddress)
	case !slices.Equal(got.Traces, want.Traces):
		return fmt.Errorf("Traces %+v, want %+v", got.Traces, want.Traces)
	}
	return nil
}
