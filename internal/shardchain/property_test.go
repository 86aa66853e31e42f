package shardchain

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ethpart/internal/chain"
	"ethpart/internal/evm"
	"ethpart/internal/types"
)

func TestPropertyValueConservedUnderRandomTraffic(t *testing.T) {
	// Property: for any random transfer workload, under either model, the
	// total balance across all shards after full settlement equals the
	// genesis supply (gas is recycled: price 0 here isolates value flow).
	f := func(seed int64, nRaw, kRaw, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kRaw%4) + 2
		model := []Model{ModelReceipts, ModelMigration}[int(mRaw)%2]
		nAccounts := 10
		accounts := make([]types.Address, nAccounts)
		alloc := map[types.Address]evm.Word{}
		var supply uint64
		for i := range accounts {
			accounts[i] = types.AddressFromSeq(uint64(i + 1))
			bal := uint64(1_000_000 + rng.Intn(1_000_000))
			alloc[accounts[i]] = evm.WordFromUint64(bal)
			supply += bal
		}
		sc, err := New(Config{K: k, Model: model}, nil, alloc, nil)
		if err != nil {
			return false
		}
		nonces := map[types.Address]uint64{}
		steps := int(nRaw%8) + 2
		for b := 0; b < steps; b++ {
			var txs []*chain.Transaction
			for t := 0; t < 6; t++ {
				from := accounts[rng.Intn(nAccounts)]
				to := accounts[rng.Intn(nAccounts)]
				txs = append(txs, &chain.Transaction{
					Nonce: nonces[from], From: from, To: &to,
					Value:    evm.WordFromUint64(uint64(rng.Intn(500))),
					GasLimit: 50_000, GasPrice: 0,
				})
				nonces[from]++
			}
			sc.Step(txs)
		}
		// Drain receipts.
		sc.Step(nil)
		sc.Step(nil)

		var total uint64
		for i := 0; i < k; i++ {
			st := sc.StateOf(i)
			for _, a := range accounts {
				total += st.GetBalance(a).Uint64()
			}
		}
		return total == supply
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyNoncesAdvanceExactlyOncePerTx(t *testing.T) {
	// Property: after a run, the nonce of every account on its home shard
	// equals the number of transactions it sent. Under migration the home
	// shard may change, but the nonce travels with the account.
	f := func(seed int64, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		model := []Model{ModelReceipts, ModelMigration}[int(mRaw)%2]
		accounts := []types.Address{
			types.AddressFromSeq(1), types.AddressFromSeq(2), types.AddressFromSeq(3),
		}
		alloc := map[types.Address]evm.Word{}
		for _, a := range accounts {
			alloc[a] = evm.WordFromUint64(1 << 30)
		}
		sc, err := New(Config{K: 3, Model: model}, nil, alloc, nil)
		if err != nil {
			return false
		}
		sent := map[types.Address]uint64{}
		for b := 0; b < 5; b++ {
			var txs []*chain.Transaction
			for t := 0; t < 4; t++ {
				from := accounts[rng.Intn(len(accounts))]
				to := accounts[rng.Intn(len(accounts))]
				txs = append(txs, &chain.Transaction{
					Nonce: sent[from], From: from, To: &to,
					Value: evm.WordFromUint64(1), GasLimit: 50_000, GasPrice: 1,
				})
				sent[from]++
			}
			for _, r := range sc.Step(txs) {
				if !r.Success {
					return false // all transfers must validate
				}
			}
		}
		for _, a := range accounts {
			if sc.StateOf(sc.HomeOf(sc.ID(a))).GetNonce(a) != sent[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
