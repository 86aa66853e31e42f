package workload

import (
	"fmt"
	"time"

	"ethpart/internal/chain"
	"ethpart/internal/evm"
	"ethpart/internal/types"
)

// The scenario layer of the workload pipeline. A Scenario names one full
// composition — an open-loop arrival process, a population skew and a
// transaction mix over the contract archetypes — and compiles to the same
// plan→emit→execute engine the era path runs on.

// ScenarioMix weights the action archetypes of a scenario. Weights are
// relative (normalised at compile time); zero disables an archetype and
// its bootstrap contracts.
type ScenarioMix struct {
	// The era archetypes.
	Transfer  float64
	Token     float64
	Wallet    float64
	Crowdsale float64
	Game      float64
	Airdrop   float64
	// CRUD is blurr-style keyed-store traffic (create/read/update/delete
	// with recent-key bias) against CrudRuntime stores.
	CRUD float64
	// Exchange is deposit/withdrawal flow through a small set of
	// exchange hub accounts — the super-vertex pattern of Fig. 2.
	Exchange float64
	// NFTMint is mint traffic against NFTRuntime collections.
	NFTMint float64
}

// total returns the sum of all weights.
func (m ScenarioMix) total() float64 {
	return m.Transfer + m.Token + m.Wallet + m.Crowdsale + m.Game +
		m.Airdrop + m.CRUD + m.Exchange + m.NFTMint
}

// Scenario is a named workload composition.
type Scenario struct {
	Name        string
	Description string

	// Seed makes the composition reproducible; same Seed ⇒ byte-identical
	// record stream.
	Seed int64
	// BlockInterval is the batching grid: arrivals landing in the same
	// interval-wide cell execute in one block (default 1 hour).
	BlockInterval time.Duration

	Arrival    ArrivalSpec
	Population PopulationSpec
	Mix        ScenarioMix

	// NewAccountFrac is the fraction of transfers that fund a brand-new
	// account (population growth).
	NewAccountFrac float64
	// DeploysPerDay paces mid-run contract launches of the mix's active
	// archetypes (new NFT collections mid-rush, new stores, …).
	DeploysPerDay float64
}

// exchangeHubs is the number of hub accounts a mix with Exchange traffic
// bootstraps.
const exchangeHubs = 4

// withDefaults fills zero fields.
func (s Scenario) withDefaults() Scenario {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.BlockInterval <= 0 {
		s.BlockInterval = time.Hour
	}
	s.Arrival = s.Arrival.withDefaults()
	return s
}

// Validate rejects unrunnable scenarios.
func (s Scenario) Validate() error {
	sc := s.withDefaults()
	if err := sc.Arrival.validate(); err != nil {
		return err
	}
	if sc.Mix.total() <= 0 {
		return fmt.Errorf("workload: scenario %q has an empty mix", s.Name)
	}
	if sc.Population.HotProb < 0 || sc.Population.HotProb > 1 {
		return fmt.Errorf("workload: scenario %q hot probability must be in [0,1], got %v",
			s.Name, sc.Population.HotProb)
	}
	if sc.Population.RecencyBias < 0 || sc.Population.RecencyBias > 1 {
		return fmt.Errorf("workload: scenario %q recency bias must be in [0,1], got %v",
			s.Name, sc.Population.RecencyBias)
	}
	if sc.NewAccountFrac < 0 || sc.NewAccountFrac > 1 {
		return fmt.Errorf("workload: scenario %q new-account fraction must be in [0,1], got %v",
			s.Name, sc.NewAccountFrac)
	}
	return nil
}

// NewScenario builds a generator running the scenario composition: the
// spec's arrival process plans blocks, its mix emits them, and the
// chain substrate executes them.
func NewScenario(sc Scenario) (*Generator, error) {
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	// Scenario compositions have no era schedule or scale.
	cfg := Config{Seed: sc.Seed, BlockInterval: sc.BlockInterval}
	g := newSubstrate(cfg)
	comp := compileScenario(sc)
	g.comp = composition{arrival: newScenarioPlanner(sc.Arrival), scenario: comp}
	if sc.Population.HotProb > 0 {
		g.pop = newPopState(sc.Population)
	}
	if sc.Mix.CRUD > 0 {
		g.crudKeys = make(map[types.Address]uint64)
	}
	// Bootstrap blocks sit just before the arrival window opens.
	g.now = sc.Arrival.Start.Add(-2 * cfg.BlockInterval)
	g.end = sc.Arrival.Start.Add(sc.Arrival.Duration)
	g.genesis()
	if err := g.scenarioBootstrap(sc); err != nil {
		return nil, err
	}
	g.endBootstrap()
	return g, nil
}

// scenarioBootstrap funds the starter population, the mix's contract set
// and (when the mix trades through exchanges) the hub accounts.
func (g *Generator) scenarioBootstrap(sc Scenario) error {
	g.beginBlock(g.now)
	for i := 0; i < bootstrapAccounts; i++ {
		a := g.newAddress()
		g.addAccount(a)
		g.appendTx(g.transferTx(g.faucet, a, initialFunding))
	}
	m := sc.Mix
	if m.Token > 0 || m.Crowdsale > 0 {
		for i := 0; i < 2; i++ {
			g.appendTx(g.deployTx(TokenRuntime(), &g.tokens))
		}
	}
	if m.Wallet > 0 {
		for i := 0; i < 2; i++ {
			g.appendTx(g.deployTx(WalletRuntime(), &g.wallets))
		}
	}
	if m.Game > 0 {
		g.appendTx(g.deployTx(GameRuntime(), &g.games))
	}
	if m.Airdrop > 0 {
		g.appendTx(g.deployTx(AirdropRuntime(), &g.airdrops))
	}
	if m.CRUD > 0 {
		for i := 0; i < 2; i++ {
			g.appendTx(g.deployTx(CrudRuntime(), &g.cruds))
		}
	}
	if m.NFTMint > 0 {
		for i := 0; i < 2; i++ {
			g.appendTx(g.deployTx(NFTRuntime(), &g.nfts))
		}
	}
	if m.Exchange > 0 {
		for i := 0; i < exchangeHubs; i++ {
			hub := g.newAddress()
			g.addAccount(hub)
			g.exchHubs = append(g.exchHubs, hub)
			g.appendTx(g.transferTx(g.faucet, hub, 1<<40))
		}
	}
	if err := g.execute(); err != nil {
		return err
	}
	// Second bootstrap block: crowdsales referencing the tokens.
	g.beginBlock(g.now)
	if m.Crowdsale > 0 {
		for i := 0; i < 2; i++ {
			owner := g.accounts[g.rng.Intn(len(g.accounts))]
			g.appendTx(g.deployTx(CrowdsaleRuntime(g.tokens[i%len(g.tokens)], owner), &g.crowdsales))
		}
	}
	return g.execute()
}

// scenarioPlanner is the open-loop arrival layer: it pulls arrival
// instants from the thinning sampler and batches each BlockInterval-wide
// grid cell (anchored at the arrival window's start) into one block whose
// plan carries the per-action arrival stamps. Empty cells produce no
// block at all — open-loop histories have gaps where nothing arrived.
type scenarioPlanner struct {
	arr       *arrivalStream
	pending   time.Time
	have      bool
	exhausted bool
	times     []int64 // per-block scratch, reused
}

func newScenarioPlanner(spec ArrivalSpec) *scenarioPlanner {
	return &scenarioPlanner{arr: newArrivalStream(spec)}
}

func (p *scenarioPlanner) plan(g *Generator) (blockPlan, bool) {
	if !p.have {
		t, ok := p.arr.next(g.rng)
		if !ok {
			p.exhausted = true
			return blockPlan{}, false
		}
		p.pending, p.have = t, true
	}
	interval := g.cfg.BlockInterval
	cell := p.pending.Sub(p.arr.spec.Start) / interval
	blockTime := p.arr.spec.Start.Add(cell * interval)
	cellEnd := blockTime.Add(interval)
	p.times = p.times[:0]
	for p.have && p.pending.Before(cellEnd) {
		p.times = append(p.times, p.pending.Unix())
		t, ok := p.arr.next(g.rng)
		if !ok {
			p.have = false
			p.exhausted = true
			break
		}
		p.pending = t
	}
	return blockPlan{time: blockTime, count: len(p.times), times: p.times}, true
}

func (p *scenarioPlanner) advance(g *Generator) {
	if p.have {
		g.now = p.pending
	} else {
		g.now = g.end
	}
}

func (p *scenarioPlanner) done(g *Generator) bool { return p.exhausted && !p.have }

// compiledScenario is the scenario layer's emitter: the normalised mix as
// cumulative thresholds over an action table, plus the deployers of the
// mix's active archetypes for mid-run launches.
type compiledScenario struct {
	spec    Scenario
	cum     []float64
	actions []func(*Generator)
	last    int // index of the last nonzero weight (absorbs rounding)
	deploy  []func(*Generator)
}

func compileScenario(sc Scenario) *compiledScenario {
	c := &compiledScenario{spec: sc}
	total := sc.Mix.total()
	add := func(w float64, act func(*Generator), dep func(*Generator)) {
		prev := 0.0
		if n := len(c.cum); n > 0 {
			prev = c.cum[n-1]
		}
		c.cum = append(c.cum, prev+w/total)
		c.actions = append(c.actions, act)
		if w > 0 {
			c.last = len(c.cum) - 1
			if dep != nil {
				c.deploy = append(c.deploy, dep)
			}
		}
	}
	m := sc.Mix
	add(m.Transfer, func(g *Generator) { g.transferAction(sc.NewAccountFrac) }, nil)
	add(m.Token, (*Generator).tokenAction,
		func(g *Generator) { g.appendTx(g.deployTx(TokenRuntime(), &g.tokens)) })
	add(m.Wallet, (*Generator).walletAction,
		func(g *Generator) { g.appendTx(g.deployTx(WalletRuntime(), &g.wallets)) })
	add(m.Crowdsale, (*Generator).crowdsaleAction, func(g *Generator) {
		owner := g.accounts[g.rng.Intn(len(g.accounts))]
		token := g.tokens[g.rng.Intn(len(g.tokens))]
		g.appendTx(g.deployTx(CrowdsaleRuntime(token, owner), &g.crowdsales))
	})
	add(m.Game, (*Generator).gameAction,
		func(g *Generator) { g.appendTx(g.deployTx(GameRuntime(), &g.games)) })
	add(m.Airdrop, (*Generator).airdropAction,
		func(g *Generator) { g.appendTx(g.deployTx(AirdropRuntime(), &g.airdrops)) })
	add(m.CRUD, (*Generator).crudAction,
		func(g *Generator) { g.appendTx(g.deployTx(CrudRuntime(), &g.cruds)) })
	add(m.Exchange, (*Generator).exchangeAction, nil) // hubs are bootstrap-only
	add(m.NFTMint, (*Generator).nftMintAction,
		func(g *Generator) { g.appendTx(g.deployTx(NFTRuntime(), &g.nfts)) })
	return c
}

// emit implements the emitter seam: paced contract launches plus one mix
// action per arrival, each stamped with its arrival instant.
func (c *compiledScenario) emit(g *Generator, plan blockPlan) {
	if len(c.deploy) > 0 && c.spec.DeploysPerDay > 0 {
		perBlock := c.spec.DeploysPerDay * g.cfg.BlockInterval.Seconds() / 86_400
		if g.rng.Float64() < perBlock {
			c.deploy[g.rng.Intn(len(c.deploy))](g)
		}
	}
	for _, at := range plan.times {
		g.arrivalUnix = at
		c.action(g)
	}
}

// action draws one archetype from the mix.
func (c *compiledScenario) action(g *Generator) {
	r := g.rng.Float64()
	for i, t := range c.cum {
		if r < t || i == c.last {
			c.actions[i](g)
			return
		}
	}
}

// crudAction performs one operation on a keyed store: creates append the
// next key, reads/updates/deletes hit existing keys with recent-key bias.
func (g *Generator) crudAction() {
	sender, topup := g.pickSender(300_000)
	store := g.pickContract(sender, &g.cruds)
	n := g.crudKeys[store]
	r := g.rng.Float64()
	var op, key, val uint64
	switch {
	case n == 0 || r < 0.3: // create
		op, key, val = 0, n, uint64(1+g.rng.Intn(1_000_000))
		g.crudKeys[store] = n + 1
	case r < 0.7: // read
		op, key = 1, g.pickCrudKey(n)
	case r < 0.9: // update
		op, key, val = 0, g.pickCrudKey(n), uint64(1+g.rng.Intn(1_000_000))
	default: // delete
		op, key = 2, g.pickCrudKey(n)
	}
	data := make([]byte, 96)
	ob := evm.WordFromUint64(op).Bytes32()
	kb := evm.WordFromUint64(key).Bytes32()
	vb := evm.WordFromUint64(val).Bytes32()
	copy(data[0:32], ob[:])
	copy(data[32:64], kb[:])
	copy(data[64:96], vb[:])
	g.appendTx(topup)
	g.appendTx(g.noteTx(&chain.Transaction{
		Nonce: g.nonceOf(sender), From: sender, To: &store,
		Data: data, GasLimit: 300_000, GasPrice: 1,
	}))
}

// pickCrudKey draws an existing key with recent-key bias: 80% of accesses
// hit the newest fifth of the keyspace (pebble-bench's recent-block bias).
func (g *Generator) pickCrudKey(n uint64) uint64 {
	span := n
	if g.rng.Float64() < 0.8 {
		span = 1 + n/5
		if span > n {
			span = n
		}
	}
	return n - 1 - uint64(g.rng.Intn(int(span)))
}

// exchangeAction moves value through an exchange hub: deposits (user→hub)
// and withdrawals (hub→recently-active user), the super-vertex traffic of
// Fig. 2's exchange accounts.
func (g *Generator) exchangeAction() {
	hub := g.exchHubs[g.rng.Intn(len(g.exchHubs))]
	value := uint64(1_000 + g.rng.Intn(100_000))
	if g.rng.Float64() < 0.6 { // deposit
		sender, topup := g.pickSender(value + 50_000)
		g.appendTx(topup)
		g.appendTx(g.transferTx(sender, hub, value))
		return
	}
	// Withdrawal; the hub refills its float from the faucet when low.
	to := g.pickTarget(hub)
	if g.avail(hub) < int64(value+50_000) {
		g.appendTx(g.transferTx(g.faucet, hub, 1<<40))
	}
	g.appendTx(g.transferTx(hub, to, value))
}

// nftMintAction mints the next token of a collection to the sender.
func (g *Generator) nftMintAction() {
	sender, topup := g.pickSender(300_000)
	coll := g.pickContract(sender, &g.nfts)
	g.appendTx(topup)
	g.appendTx(g.noteTx(&chain.Transaction{
		Nonce: g.nonceOf(sender), From: sender, To: &coll,
		GasLimit: 300_000, GasPrice: 1,
	}))
}
