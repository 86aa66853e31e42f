package shardchain

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ethpart/internal/chain"
	"ethpart/internal/evm"
	"ethpart/internal/types"
)

// sameAccount compares addr's full account state between a shard state and
// the unsharded oracle: balance, nonce, code and storage in both directions.
func sameAccount(t *testing.T, got, oracle *chain.State, addr types.Address) bool {
	t.Helper()
	if got.GetBalance(addr) != oracle.GetBalance(addr) {
		return false
	}
	if got.GetNonce(addr) != oracle.GetNonce(addr) {
		return false
	}
	if string(got.GetCode(addr)) != string(oracle.GetCode(addr)) {
		return false
	}
	equal := true
	got.EachStorage(addr, func(k, v evm.Word) bool {
		if oracle.GetState(addr, k) != v {
			equal = false
		}
		return equal
	})
	oracle.EachStorage(addr, func(k, v evm.Word) bool {
		if got.GetState(addr, k) != v {
			equal = false
		}
		return equal
	})
	return equal
}

func TestMigrateRoundTripPurgesGhostState(t *testing.T) {
	// The ISSUE scenario: a slot zeroed while the account lived on another
	// shard must not resurrect with its stale value on the way back.
	x := types.AddressFromSeq(9)
	sc, err := newChain(Config{K: 2, Model: ModelMigration},
		map[types.Address]evm.Word{x: evm.WordFromUint64(1000)},
		map[types.Address]int{x: 0})
	if err != nil {
		t.Fatal(err)
	}
	st0 := sc.StateOf(0)
	st0.SetNonce(x, 3)
	st0.SetCode(x, []byte{0xaa, 0xbb})
	st0.SetState(x, evm.WordFromUint64(1), evm.WordFromUint64(10))
	st0.SetState(x, evm.WordFromUint64(2), evm.WordFromUint64(20))
	st0.DiscardJournal()

	if moved, err := sc.MigrateAccount(sc.ID(x), 1); err != nil || !moved {
		t.Fatalf("migrate to 1: moved=%v err=%v", moved, err)
	}
	if st0.Exist(x) {
		t.Fatal("source shard must not keep a ghost account after migration")
	}
	if st0.GetCode(x) != nil || st0.GetNonce(x) != 0 || st0.StorageSize(x) != 0 {
		t.Fatal("source shard must not keep nonce, code or storage after migration")
	}

	// While on shard 1: zero slot 1, write slot 3.
	st1 := sc.StateOf(1)
	st1.SetState(x, evm.WordFromUint64(1), evm.Word{})
	st1.SetState(x, evm.WordFromUint64(3), evm.WordFromUint64(30))
	st1.DiscardJournal()

	if moved, err := sc.MigrateAccount(sc.ID(x), 0); err != nil || !moved {
		t.Fatalf("migrate back to 0: moved=%v err=%v", moved, err)
	}
	if st1.Exist(x) {
		t.Fatal("shard 1 must not keep a ghost account after the return trip")
	}
	if got := st0.GetState(x, evm.WordFromUint64(1)); !got.IsZero() {
		t.Errorf("slot 1 was zeroed while away but resurrected as %v", got)
	}
	if got := st0.GetState(x, evm.WordFromUint64(2)).Uint64(); got != 20 {
		t.Errorf("slot 2 = %d, want 20", got)
	}
	if got := st0.GetState(x, evm.WordFromUint64(3)).Uint64(); got != 30 {
		t.Errorf("slot 3 = %d, want 30", got)
	}
	if st0.GetNonce(x) != 3 || len(st0.GetCode(x)) != 2 {
		t.Error("nonce/code must survive the round trip")
	}
	if got := st0.GetBalance(x).Uint64(); got != 1000 {
		t.Errorf("balance = %d, want 1000", got)
	}
}

func TestPropertyMigrationRoundTripMatchesOracle(t *testing.T) {
	// Property: for any interleaving of storage/nonce/balance mutations and
	// shard-to-shard migrations, the account's state on its final home shard
	// equals an unsharded oracle state that saw the same mutations, and no
	// other shard knows the account at all. A migration is a transplant of
	// the account record when the destination has none and a field-by-field
	// merge when it does; both are driven here — the merge by stranding a
	// credit on a shard that is not the home (what a receipt settling on a
	// stale home leaves) and migrating onto it — and every run starts by
	// zeroing a slot while the account lives away from where it was set.
	x := types.AddressFromSeq(7)
	f := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 3
		sc, err := newChain(Config{K: k, Model: ModelMigration},
			map[types.Address]evm.Word{x: evm.WordFromUint64(1 << 30)},
			map[types.Address]int{x: 0})
		if err != nil {
			return false
		}
		oracle := chain.NewState()
		oracle.AddBalance(x, evm.WordFromUint64(1<<30))
		oracle.SetCode(x, []byte{0x60})
		sc.StateOf(0).SetCode(x, []byte{0x60})

		// Slot 7 is set on shard 0 and zeroed on shard 1; it must stay
		// zeroed wherever the account ends up.
		slot7 := evm.WordFromUint64(7)
		sc.StateOf(0).SetState(x, slot7, evm.WordFromUint64(70))
		sc.StateOf(0).DiscardJournal()
		if moved, err := sc.MigrateAccount(sc.ID(x), 1); err != nil || !moved {
			return false
		}
		sc.StateOf(1).SetState(x, slot7, evm.Word{})
		sc.StateOf(1).DiscardJournal()

		ops := int(opsRaw%24) + 8
		for i := 0; i < ops; i++ {
			home, _ := sc.Known(sc.ID(x))
			cur := sc.StateOf(home)
			switch rng.Intn(5) {
			case 4: // strand a credit off-home, then migrate onto it: the merge
				other := (home + 1 + rng.Intn(k-1)) % k
				amt := evm.WordFromUint64(uint64(rng.Intn(1000)))
				sc.StateOf(other).AddBalance(x, amt)
				sc.StateOf(other).DiscardJournal()
				oracle.AddBalance(x, amt)
				before := sc.Stats()
				if moved, err := sc.MigrateAccount(sc.ID(x), other); err != nil || !moved {
					return false
				}
				d := sc.Stats().Sub(before)
				if d.Migrations != 1 || d.MigratedSlots != int64(oracle.StorageSize(x)) {
					return false
				}
			case 0: // migrate to a random shard (possibly the current one)
				if _, err := sc.MigrateAccount(sc.ID(x), rng.Intn(k)); err != nil {
					return false
				}
			case 1: // write (or zero) a storage slot
				key := evm.WordFromUint64(uint64(rng.Intn(6)))
				val := evm.WordFromUint64(uint64(rng.Intn(3) * 100)) // 0 deletes
				cur.SetState(x, key, val)
				oracle.SetState(x, key, val)
				cur.DiscardJournal()
			case 2: // bump the nonce
				cur.SetNonce(x, cur.GetNonce(x)+1)
				oracle.SetNonce(x, oracle.GetNonce(x)+1)
				cur.DiscardJournal()
			case 3: // move some balance
				amt := evm.WordFromUint64(uint64(rng.Intn(1000)))
				cur.SubBalance(x, amt)
				oracle.SubBalance(x, amt)
				cur.DiscardJournal()
			}
			oracle.DiscardJournal()
		}

		home, _ := sc.Known(sc.ID(x))
		if !sameAccount(t, sc.StateOf(home), oracle, x) {
			return false
		}
		for s := 0; s < k; s++ {
			if s != home && sc.StateOf(s).Exist(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMigrateAccountPrehomesUnknown(t *testing.T) {
	sc := newSC(t, ModelMigration, nil)
	if moved, err := sc.MigrateAccount(sc.ID(carol), 1); err != nil || moved {
		t.Fatalf("unknown account: moved=%v err=%v, want pre-home without transfer", moved, err)
	}
	if home, ok := sc.Known(sc.ID(carol)); !ok || home != 1 {
		t.Errorf("carol home = %d,%v, want 1,true", home, ok)
	}
	if sc.Stats().Migrations != 0 {
		t.Error("pre-homing must not count as a migration")
	}
	// A second move of the still-unmaterialised account must also re-home
	// without a transfer: migrating nothing would fabricate an empty
	// account on the destination and count a phantom migration.
	if moved, err := sc.MigrateAccount(sc.ID(carol), 0); err != nil || moved {
		t.Fatalf("unmaterialised account: moved=%v err=%v, want re-home only", moved, err)
	}
	if home, _ := sc.Known(sc.ID(carol)); home != 0 {
		t.Errorf("carol home = %d, want 0", home)
	}
	for s := 0; s < 2; s++ {
		if sc.StateOf(s).Exist(carol) {
			t.Errorf("shard %d fabricated an account for a stateless address", s)
		}
	}
	if st := sc.Stats(); st.Migrations != 0 || st.Messages != 0 {
		t.Error("moving a stateless account must not count migrations or messages")
	}
	if _, err := sc.MigrateAccount(sc.ID(carol), 5); err == nil {
		t.Error("out-of-range shard must error")
	}
}

func TestRehomeOnlyMovesUnmaterialisedAccounts(t *testing.T) {
	sc := newSC(t, ModelReceipts, map[types.Address]int{alice: 0})
	// alice has genesis state on shard 0: rehoming must refuse.
	if changed, err := sc.Rehome(sc.ID(alice), 1); err != nil || changed {
		t.Errorf("rehome of materialised account: changed=%v err=%v, want false,nil", changed, err)
	}
	if home, _ := sc.Known(sc.ID(alice)); home != 0 {
		t.Error("alice must stay on shard 0")
	}
	// carol has no state anywhere: rehoming redirects her future placement.
	other := 1 - sc.HomeOf(sc.ID(carol)) // assign via hash fallback, pick the other shard
	if changed, err := sc.Rehome(sc.ID(carol), other); err != nil || !changed {
		t.Errorf("rehome of unmaterialised account: changed=%v err=%v, want true,nil", changed, err)
	}
	if home, _ := sc.Known(sc.ID(carol)); home != other {
		t.Errorf("carol home = %d, want %d", home, other)
	}
	if _, err := sc.Rehome(sc.ID(carol), -1); err == nil {
		t.Error("out-of-range shard must error")
	}
}

func TestInFlightReceiptFollowsRehome(t *testing.T) {
	// A receipt is routed to its target's home shard at emit time; if the
	// account is re-homed while the receipt is in flight, settlement must
	// follow it to the new home instead of stranding value on (or
	// resurrecting ghost state of) the stale shard.
	sc := newSC(t, ModelReceipts, map[types.Address]int{alice: 0, carol: 1})
	r := sc.Step([]*chain.Transaction{transfer(0, alice, carol, 500)})[0]
	if !r.Success {
		t.Fatalf("cross transfer failed: %v", r.Err)
	}
	// The receipt now sits in shard 1's inbox; carol has no state yet, so
	// re-homing her to shard 0 is legal.
	if changed, err := sc.Rehome(sc.ID(carol), 0); err != nil || !changed {
		t.Fatalf("rehome: changed=%v err=%v", changed, err)
	}
	// First drain step forwards the receipt, second settles it.
	sc.Step(nil)
	sc.Step(nil)
	if sc.PendingReceipts() != 0 {
		t.Fatal("receipt must settle after forwarding")
	}
	if got := sc.StateOf(0).GetBalance(carol).Uint64(); got != 500 {
		t.Errorf("carol balance on new home = %d, want 500", got)
	}
	if sc.StateOf(1).Exist(carol) {
		t.Error("stale shard must not keep any state for the re-homed account")
	}
	// Forwarding costs one extra message and one extra block of latency.
	st := sc.Stats()
	if st.ReceiptsSettled != 1 || st.SettlementBlocks != 2 {
		t.Errorf("settled=%d latency=%d, want 1 receipt at 2 blocks", st.ReceiptsSettled, st.SettlementBlocks)
	}
	if st.Messages != 2 {
		t.Errorf("messages = %d, want 2 (emit + forward)", st.Messages)
	}
}

func TestReceiptsCrossPathErrors(t *testing.T) {
	// alice on shard 0, bob on shard 1 → cross under receipts.
	sc := newSC(t, ModelReceipts, map[types.Address]int{alice: 0, bob: 1})

	// Nonce mismatch must be reported as ErrNonceMismatch.
	tx := transfer(5, alice, bob, 10)
	r := sc.Step([]*chain.Transaction{tx})[0]
	if r.Success || r.Err != chain.ErrNonceMismatch {
		t.Errorf("bad nonce: success=%v err=%v, want ErrNonceMismatch", r.Success, r.Err)
	}

	// Only the value is required: a transfer of the full balance with a
	// non-zero gas price succeeds (gas money is never debited on this path).
	full := balanceOf(sc, alice).Uint64()
	r = sc.Step([]*chain.Transaction{transfer(0, alice, bob, full)})[0]
	if !r.Success {
		t.Errorf("full-balance cross transfer failed: %v", r.Err)
	}

	// Now alice has nothing: any value must fail with ErrInsufficientFunds.
	r = sc.Step([]*chain.Transaction{transfer(1, alice, bob, 1)})[0]
	if r.Success || r.Err != chain.ErrInsufficientFunds {
		t.Errorf("broke sender: success=%v err=%v, want ErrInsufficientFunds", r.Success, r.Err)
	}

	sc.Step(nil)
	if sc.PendingReceipts() != 0 {
		t.Error("all receipts must settle after a drain step")
	}
	if got := balanceOf(sc, bob).Uint64(); got != (1<<40)+full {
		t.Errorf("bob balance = %d, want %d", got, (1<<40)+full)
	}
}
