package workload

import (
	"math/rand"

	"ethpart/internal/types"
)

// communityState implements the paper's first caveat — "if sharding is made
// visible to developers, then multi-shard operations could be sometimes
// avoided" — as a workload property: every account and contract belongs to
// one of N application communities, and a configurable fraction of each
// account's interactions stays inside its community. A perfectly
// shard-aligned application corresponds to locality 1.0 with one community
// per shard; today's Ethereum corresponds to locality 0 (communities off).
type communityState struct {
	n        int
	locality float64
	of       map[types.Address]int

	accounts [][]types.Address
	// pa holds each community's preferential-attachment pool as pool
	// handles (Generator.paPool).
	pa [][]uint32

	tokens     [][]types.Address
	wallets    [][]types.Address
	games      [][]types.Address
	airdrops   [][]types.Address
	crowdsales [][]types.Address
}

func newCommunityState(n int, locality float64) *communityState {
	c := &communityState{
		n:        n,
		locality: locality,
		of:       make(map[types.Address]int),
	}
	alloc := func() [][]types.Address { return make([][]types.Address, n) }
	c.accounts = alloc()
	c.pa = make([][]uint32, n)
	c.tokens = alloc()
	c.wallets = alloc()
	c.games = alloc()
	c.airdrops = alloc()
	c.crowdsales = alloc()
	return c
}

// assign places addr in a community (uniformly) and returns it.
func (c *communityState) assign(rng *rand.Rand, addr types.Address) int {
	if comm, ok := c.of[addr]; ok {
		return comm
	}
	comm := rng.Intn(c.n)
	c.of[addr] = comm
	return comm
}

// assignTo places addr in a specific community (first placement wins) and
// returns the effective community. Shard-aware applications join their
// creator's community: a funded account joins its funder, an airdrop
// recipient its sender, a crowdsale its token.
func (c *communityState) assignTo(addr types.Address, comm int) int {
	if prev, ok := c.of[addr]; ok {
		return prev
	}
	c.of[addr] = comm
	return comm
}

// community returns addr's community, defaulting to 0 for untracked
// addresses (the faucet, miners).
func (c *communityState) community(addr types.Address) int {
	return c.of[addr]
}

// addAccount registers a user account in a uniformly chosen community.
func (c *communityState) addAccount(rng *rand.Rand, addr types.Address) {
	comm := c.assign(rng, addr)
	c.accounts[comm] = append(c.accounts[comm], addr)
}

// addAccountTo registers a user account in a chosen community.
func (c *communityState) addAccountTo(addr types.Address, comm int) {
	comm = c.assignTo(addr, comm)
	c.accounts[comm] = append(c.accounts[comm], addr)
}

// registryFor maps a generator contract registry to its per-community
// counterpart.
func (c *communityState) registryFor(global *[]types.Address, g *Generator) *[][]types.Address {
	switch global {
	case &g.tokens:
		return &c.tokens
	case &g.wallets:
		return &c.wallets
	case &g.games:
		return &c.games
	case &g.airdrops:
		return &c.airdrops
	case &g.crowdsales:
		return &c.crowdsales
	default:
		return nil
	}
}

// addContract registers a deployed contract in its community registry;
// comm < 0 chooses uniformly.
func (c *communityState) addContract(rng *rand.Rand, addr types.Address, reg *[][]types.Address, comm int) {
	if comm < 0 {
		comm = c.assign(rng, addr)
	} else {
		comm = c.assignTo(addr, comm)
	}
	(*reg)[comm] = append((*reg)[comm], addr)
}

// pickLocal reports whether the next interaction should stay local and, if
// so, returns a community-local pick from the list when available.
func (c *communityState) pickLocal(rng *rand.Rand, comm int, list [][]types.Address) (types.Address, bool) {
	if rng.Float64() >= c.locality {
		return types.Address{}, false
	}
	local := list[comm]
	if len(local) == 0 {
		return types.Address{}, false
	}
	return local[rng.Intn(len(local))], true
}

// feedPA records activity for preferential attachment inside addr's
// community; h is addr's pool handle.
func (c *communityState) feedPA(rng *rand.Rand, addr types.Address, h uint32) {
	const paCap = 1 << 18
	comm, ok := c.of[addr]
	if !ok {
		return
	}
	if len(c.pa[comm]) < paCap {
		c.pa[comm] = append(c.pa[comm], h)
	} else {
		c.pa[comm][rng.Intn(paCap)] = h
	}
}
