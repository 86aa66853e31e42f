package workload

import (
	"math/rand"
	"testing"
	"time"

	"ethpart/internal/types"
)

func TestCommunityStateAssignSticky(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := newCommunityState(4, 0.9)
	a := types.AddressFromSeq(1)
	comm := c.assign(rng, a)
	for i := 0; i < 10; i++ {
		if got := c.assign(rng, a); got != comm {
			t.Fatal("community assignment must be sticky")
		}
	}
	if got := c.community(a); got != comm {
		t.Fatalf("community() = %d, want %d", got, comm)
	}
}

func TestCommunityPickLocalRespectsLocality(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// locality 0: never local.
	c := newCommunityState(2, 0)
	c.tokens[0] = []types.Address{types.AddressFromSeq(5)}
	if _, ok := c.pickLocal(rng, 0, c.tokens); ok {
		t.Error("locality 0 must never pick local")
	}
	// locality 1 with an empty community list: cannot pick local.
	c = newCommunityState(2, 1)
	if _, ok := c.pickLocal(rng, 0, c.tokens); ok {
		t.Error("empty community list must fall through")
	}
	// locality 1 with a local contract: always picks it.
	c.tokens[1] = []types.Address{types.AddressFromSeq(9)}
	got, ok := c.pickLocal(rng, 1, c.tokens)
	if !ok || got != types.AddressFromSeq(9) {
		t.Errorf("pickLocal = %v, %v", got, ok)
	}
}

func TestCommunityWorkloadKeepsInteractionsLocal(t *testing.T) {
	// With high locality, most account-to-account edges must join members
	// of the same community.
	eras := []Era{{
		Name:  "mini",
		Start: date(2017, time.January, 1), End: date(2017, time.January, 8),
		TxPerDayStart: 10_000, TxPerDayEnd: 10_000, Kind: GrowthLinear,
		NewAccountFrac: 0.2, DeploysPerDay: 10,
		Mix: TxMix{Transfer: 0.7, Token: 0.15, Wallet: 0.1, Crowdsale: 0.02, Game: 0.02, Airdrop: 0.01},
	}}
	gen, err := New(Config{
		Seed: 4, Scale: 0.05, Eras: eras, BlockInterval: time.Hour,
		Communities: 4, CommunityLocality: 0.95,
	})
	if err != nil {
		t.Fatal(err)
	}
	var same, cross int
	for {
		blk, ok, err := gen.NextBlock()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if blk == nil {
			continue
		}
		for _, r := range blk.Receipts {
			for _, tr := range r.Traces {
				cf, okF := gen.comm.of[tr.From]
				ct, okT := gen.comm.of[tr.To]
				if !okF || !okT {
					continue // faucet, miners, attacker plumbing
				}
				if cf == ct {
					same++
				} else {
					cross++
				}
			}
		}
	}
	total := same + cross
	if total < 500 {
		t.Fatalf("too few community-tracked interactions: %d", total)
	}
	frac := float64(same) / float64(total)
	if frac < 0.75 {
		t.Errorf("same-community fraction = %.3f, want >= 0.75 at locality 0.95", frac)
	}
}

func TestCommunityWorkloadOffByDefault(t *testing.T) {
	gen, err := New(Config{Seed: 1, Scale: 0.02, Eras: miniEras(), BlockInterval: 6 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if gen.comm != nil {
		t.Error("community workload must be off by default")
	}
}
