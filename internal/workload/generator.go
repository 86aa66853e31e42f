package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"ethpart/internal/chain"
	"ethpart/internal/evm"
	"ethpart/internal/trace"
	"ethpart/internal/types"
)

// Config parameterises the era-based synthetic-history generator — the
// closed-loop reproduction of the paper's trace. Since the pipeline
// refactor it is one composition of the three workload layers (an era
// arrival plan, the preferential-attachment population and the era TxMix
// scenario) and produces byte-identical histories to the pre-pipeline
// generator.
type Config struct {
	// Seed makes the whole history reproducible.
	Seed int64
	// Scale multiplies every transaction rate. 1.0 approximates the
	// paper's trace magnitude (tens of millions of interactions); the
	// experiments default to 0.01–0.05 to stay laptop-sized while keeping
	// the relative magnitudes of all eras.
	Scale float64
	// Eras is the history schedule; defaults to DefaultEras().
	Eras []Era
	// BlockInterval is simulated time between blocks; defaults to 1 hour.
	// (Real Ethereum mines every ~15 s; coarser blocks with
	// proportionally more transactions produce the same graph.)
	BlockInterval time.Duration
	// Communities, when > 1 together with CommunityLocality > 0, turns on
	// the shard-aware workload of the paper's first caveat: accounts and
	// contracts belong to application communities and CommunityLocality of
	// each account's interactions stays inside its community. See
	// communityState.
	Communities       int
	CommunityLocality float64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Scale <= 0 {
		c.Scale = 0.02
	}
	if c.Eras == nil {
		c.Eras = DefaultEras()
	}
	if c.BlockInterval <= 0 {
		c.BlockInterval = time.Hour
	}
	return c
}

// The substrate's fixed parameters, shared by the era path and every
// scenario. paProb is the probability that an interaction target is drawn
// by preferential attachment rather than uniformly, which yields the
// heavy-tailed degree distribution real traces show; maxAirdropFanout
// bounds an airdrop batch; bootstrapAccounts seeds the starter population.
const (
	paProb            = 0.7
	maxAirdropFanout  = 16
	bootstrapAccounts = 32
)

// initialFunding is the balance a new account receives with its first
// incoming transfer — enough for many transactions at gas price 1.
const initialFunding = 100_000_000

// blockPlan is the arrival layer's output for one block: its timestamp,
// how many logical actions arrive in it and (for open-loop compositions)
// the arrival instant of each action. A nil times means every action
// arrives exactly at the block timestamp — the closed-loop era semantics.
type blockPlan struct {
	time  time.Time
	count int
	era   *Era    // era composition only
	times []int64 // per-action arrival unix seconds; nil = all at time
	skip  bool    // schedule gap: advance time, emit no block
}

// blockPlanner is the arrival layer: it plans successive blocks. plan
// returns ok=false when the schedule is exhausted; advance moves the
// generator clock after a block executes.
type blockPlanner interface {
	plan(g *Generator) (blockPlan, bool)
	advance(g *Generator)
	done(g *Generator) bool
}

// emitter is the scenario layer: it fills the block being built with the
// plan's transactions through the generator's population machinery.
type emitter interface {
	emit(g *Generator, plan blockPlan)
}

// composition binds the pipeline's layers for one generator. Both the
// era Config path and every named Scenario compile to exactly one of
// these; NextBlock is the single engine that runs them.
type composition struct {
	arrival  blockPlanner
	scenario emitter
}

// Generator produces the synthetic blockchain history block by block.
// It is not safe for concurrent use.
type Generator struct {
	cfg   Config
	comp  composition
	rng   *rand.Rand
	state *chain.State
	now   time.Time
	end   time.Time

	faucet  types.Address
	miners  []types.Address
	seq     uint64                   // address sequence counter
	pending map[types.Address]uint64 // extra nonces used in the block being built
	delta   map[types.Address]int64  // balance effects of the block being built

	accounts []types.Address // funded user accounts (candidate senders)
	// paPool is the preferential-attachment pool (activity-weighted). It
	// and the community pools hold 4-byte handles instead of 20-byte
	// addresses (poolAddr resolves one): below base, a vertex ID of boot;
	// from base up, a vertex ID of reg offset by base. The registries
	// every record needs anyway are the pools' only address table.
	paPool []uint32
	// reg assigns the vertex IDs of the records each executed block is
	// converted into (recs). The bootstrap blocks' records are never
	// emitted, so their registry is set aside as boot once they are done
	// (endBootstrap), and the emitted records' IDs start from 0.
	reg  *trace.Registry
	boot *trace.Registry
	base uint32
	recs []trace.Record // the last executed block's records, reused

	tokens     []types.Address
	wallets    []types.Address
	games      []types.Address
	airdrops   []types.Address
	crowdsales []types.Address
	attackers  []types.Address

	// Scenario-composition contract registries and state.
	cruds    []types.Address
	nfts     []types.Address
	exchHubs []types.Address
	crudKeys map[types.Address]uint64 // live key count per CRUD store

	// comm is non-nil when the shard-aware community workload is enabled.
	comm *communityState
	// pop is non-nil when a scenario's hot-account/recency population
	// layer is enabled.
	pop *popState
	// deployComm, when set, pins the next deployTx's contract to a
	// community (consumed by deployTx).
	deployComm *int

	// Block under construction: transactions and their arrival stamps,
	// reused across blocks so the steady-state emit path does not
	// allocate per action.
	blockTxs    []*chain.Transaction
	blockTimes  []int64
	arrivalUnix int64 // arrival stamp applied by appendTx

	// number is the last executed block's; genesis is block 0.
	number uint64
}

// Block is one executed block of the generated history (chain.ExecuteBlock,
// which seals nothing).
type Block struct {
	Number uint64
	Time   int64 // Unix seconds
	// Receipts has one entry per transaction, in block order. It is the
	// block's own slab, so callers may keep it.
	Receipts []chain.Receipt
	// Records are the receipts' interaction records, stamped with each
	// transaction's arrival instant, in the generator's vertex IDs. The
	// slice is reused by the next block; callers must not retain it.
	Records []trace.Record
}

// New builds an era-composition generator, its genesis state, a starter
// population and the initial contract set.
func New(cfg Config) (*Generator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Eras) == 0 {
		return nil, fmt.Errorf("workload: empty era schedule")
	}
	g := newSubstrate(cfg)
	g.comp = composition{arrival: &eraPlanner{}, scenario: eraEmitter{}}
	g.now = cfg.Eras[0].Start
	g.end = cfg.Eras[len(cfg.Eras)-1].End
	if cfg.Communities > 1 && cfg.CommunityLocality > 0 {
		g.comm = newCommunityState(cfg.Communities, cfg.CommunityLocality)
	}
	g.genesis()
	// Starter population and contracts arrive in the bootstrap blocks.
	if err := g.bootstrap(); err != nil {
		return nil, err
	}
	g.endBootstrap()
	return g, nil
}

// newSubstrate builds the shared generator machinery (rng, bookkeeping).
func newSubstrate(cfg Config) *Generator {
	return &Generator{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		pending: make(map[types.Address]uint64),
		delta:   make(map[types.Address]int64),
		reg:     trace.NewRegistry(),
	}
}

// genesis mints the faucet and miners and allocates the genesis state.
func (g *Generator) genesis() {
	g.faucet = g.newAddress()
	g.state = chain.NewStateWithAlloc(map[types.Address]evm.Word{
		// Effectively inexhaustible faucet.
		g.faucet: {0, 0, 1, 0}, // 2^128 wei
	})
	for i := 0; i < 5; i++ {
		g.miners = append(g.miners, g.newAddress())
	}
}

// endBootstrap sets the bootstrap blocks' registry aside (see reg).
func (g *Generator) endBootstrap() {
	g.boot, g.reg = g.reg, trace.NewRegistry()
	g.base = uint32(g.boot.Len())
}

// hasCode reports whether addr holds contract code.
func (g *Generator) hasCode(addr types.Address) bool { return len(g.state.GetCode(addr)) > 0 }

// newAddress mints the next deterministic address.
func (g *Generator) newAddress() types.Address {
	g.seq++
	return types.AddressFromSeq(g.seq)
}

// addAccount registers a user account as a future sender and, when the
// community workload is on, places it in a random community.
func (g *Generator) addAccount(a types.Address) {
	g.accounts = append(g.accounts, a)
	if g.comm != nil {
		g.comm.addAccount(g.rng, a)
	}
}

// addAccountNear registers a new user account in creator's community — the
// shard-aware growth pattern where newcomers join the application community
// that onboarded them.
func (g *Generator) addAccountNear(a, creator types.Address) {
	g.accounts = append(g.accounts, a)
	if g.comm != nil {
		g.comm.addAccountTo(a, g.comm.community(creator))
	}
}

// pickContract chooses a contract of one archetype, preferring the
// sender's community when the shard-aware workload is enabled.
func (g *Generator) pickContract(sender types.Address, global *[]types.Address) types.Address {
	if g.comm != nil {
		if perComm := g.comm.registryFor(global, g); perComm != nil {
			if addr, ok := g.comm.pickLocal(g.rng, g.comm.community(sender), *perComm); ok {
				return addr
			}
		}
	}
	return (*global)[g.rng.Intn(len(*global))]
}

// nonceOf returns the next usable nonce for addr inside the block being
// built (chain nonce plus uses earlier in this block).
func (g *Generator) nonceOf(addr types.Address) uint64 {
	n := g.state.GetNonce(addr) + g.pending[addr]
	g.pending[addr]++
	return n
}

// avail returns addr's spendable balance including the effects of
// transactions already queued for the block being built.
func (g *Generator) avail(addr types.Address) int64 {
	bal := g.state.GetBalance(addr)
	var b int64
	if bal.IsUint64() && bal.Uint64() < 1<<62 {
		b = int64(bal.Uint64())
	} else {
		b = 1 << 62 // effectively unlimited (the faucet)
	}
	return b + g.delta[addr]
}

// noteTx records tx's worst-case balance effects for within-block
// accounting and returns tx for chaining.
func (g *Generator) noteTx(tx *chain.Transaction) *chain.Transaction {
	cost := int64(tx.GasLimit * tx.GasPrice)
	if tx.Value.IsUint64() {
		cost += int64(tx.Value.Uint64())
		if tx.To != nil {
			g.delta[*tx.To] += int64(tx.Value.Uint64())
		}
	}
	g.delta[tx.From] -= cost
	return tx
}

// appendTx queues tx into the block being built, stamped with the current
// arrival instant. A nil tx is a no-op (actions whose sender needed no
// faucet top-up pass nil for the top-up slot).
func (g *Generator) appendTx(tx *chain.Transaction) {
	if tx == nil {
		return
	}
	g.blockTxs = append(g.blockTxs, tx)
	g.blockTimes = append(g.blockTimes, g.arrivalUnix)
}

// beginBlock resets the per-block transaction scratch.
func (g *Generator) beginBlock(at time.Time) {
	g.blockTxs = g.blockTxs[:0]
	g.blockTimes = g.blockTimes[:0]
	g.arrivalUnix = at.Unix()
}

// bootstrap funds the first accounts and deploys the starter contract set.
func (g *Generator) bootstrap() error {
	g.beginBlock(g.now)
	for i := 0; i < bootstrapAccounts; i++ {
		a := g.newAddress()
		g.addAccount(a)
		g.appendTx(g.transferTx(g.faucet, a, initialFunding))
	}
	// Deploy two of each archetype (crowdsales need a token+owner first,
	// so they go through deployContract on the next block).
	for i := 0; i < 2; i++ {
		g.appendTx(g.deployTx(TokenRuntime(), &g.tokens))
		g.appendTx(g.deployTx(WalletRuntime(), &g.wallets))
	}
	g.appendTx(g.deployTx(GameRuntime(), &g.games))
	g.appendTx(g.deployTx(AirdropRuntime(), &g.airdrops))
	if err := g.execute(); err != nil {
		return err
	}
	// Second bootstrap block: crowdsales referencing the tokens.
	g.beginBlock(g.now)
	for i := 0; i < 2; i++ {
		owner := g.accounts[g.rng.Intn(len(g.accounts))]
		runtime := CrowdsaleRuntime(g.tokens[i%len(g.tokens)], owner)
		g.appendTx(g.deployTx(runtime, &g.crowdsales))
	}
	return g.execute()
}

// execute executes a block of the queued transactions at the generator clock
// and advances it one interval (the closed-loop bootstrap cadence).
func (g *Generator) execute() error {
	_, err := g.executeAt(g.now)
	g.now = g.now.Add(g.cfg.BlockInterval)
	return err
}

// executeAt executes a block of the queued transactions with the given
// timestamp. It does not advance the generator clock — the arrival layer
// owns time.
func (g *Generator) executeAt(at time.Time) (*Block, error) {
	miner := g.miners[g.rng.Intn(len(g.miners))]
	// No block gas ceiling: a generated block holds whatever arrived.
	x := chain.ExecuteBlock(g.state, miner, math.MaxUint64, g.blockTxs)
	g.number++
	number := g.number
	clear(g.pending)
	clear(g.delta)
	g.recs = trace.AppendReceipts(g.recs[:0], uint32(number), at.Unix(), g.blockTimes,
		x.Receipts, g.reg, g.hasCode)
	g.updatePools()
	if len(x.Skipped) > 0 {
		// Skips indicate a generator bug (bad nonce/balance bookkeeping);
		// surface the first one.
		return nil, fmt.Errorf("workload: block %d skipped %d txs: %w",
			number, len(x.Skipped), x.Skipped[0])
	}
	return &Block{Number: number, Time: at.Unix(), Receipts: x.Receipts, Records: g.recs}, nil
}

// updatePools feeds the last block's records into the
// preferential-attachment pools.
func (g *Generator) updatePools() {
	const paCap = 1 << 20
	for _, rec := range g.recs {
		for _, id := range [2]uint64{rec.From, rec.To} {
			addr, _ := g.reg.Address(id)
			if addr == g.faucet {
				continue
			}
			h := g.base + uint32(id)
			if len(g.paPool) < paCap {
				g.paPool = append(g.paPool, h)
			} else {
				g.paPool[g.rng.Intn(paCap)] = h
			}
			if g.comm != nil {
				g.comm.feedPA(g.rng, addr, h)
			}
			if g.pop != nil {
				g.pop.note(addr)
			}
		}
	}
}

// poolAddr returns the address of pool handle h.
func (g *Generator) poolAddr(h uint32) types.Address {
	var addr types.Address
	if h < g.base {
		addr, _ = g.boot.Address(uint64(h))
	} else {
		addr, _ = g.reg.Address(uint64(h - g.base))
	}
	return addr
}

// pickTarget draws an interaction target for sender: the population
// layer's hot set first (scenario compositions), then preferential
// attachment with probability paProb, otherwise a uniform existing
// account. With the community workload enabled, the draw stays inside the
// sender's community with the configured locality.
func (g *Generator) pickTarget(sender types.Address) types.Address {
	if g.pop != nil {
		if addr, ok := g.pop.draw(g.rng); ok {
			return addr
		}
	}
	if g.comm != nil && g.rng.Float64() < g.comm.locality {
		comm := g.comm.community(sender)
		if pool := g.comm.pa[comm]; len(pool) > 0 && g.rng.Float64() < paProb {
			return g.poolAddr(pool[g.rng.Intn(len(pool))])
		}
		if accs := g.comm.accounts[comm]; len(accs) > 0 {
			return accs[g.rng.Intn(len(accs))]
		}
	}
	if len(g.paPool) > 0 && g.rng.Float64() < paProb {
		return g.poolAddr(g.paPool[g.rng.Intn(len(g.paPool))])
	}
	return g.accounts[g.rng.Intn(len(g.accounts))]
}

// pickSender draws a funded sender, topping it up from the faucet when its
// spendable balance (including this block's queued spending) runs low. The
// returned top-up transaction (if any) must precede the sender's
// transaction in the block.
func (g *Generator) pickSender(need uint64) (types.Address, *chain.Transaction) {
	sender := g.accounts[g.rng.Intn(len(g.accounts))]
	if g.avail(sender) >= int64(need) {
		return sender, nil
	}
	top := initialFunding + need // cover this transaction plus headroom
	return sender, g.transferTx(g.faucet, sender, top)
}

// transferTx builds a plain value transfer.
func (g *Generator) transferTx(from, to types.Address, value uint64) *chain.Transaction {
	return g.noteTx(&chain.Transaction{
		Nonce: g.nonceOf(from), From: from, To: &to,
		Value: evm.WordFromUint64(value), GasLimit: 50_000, GasPrice: 1,
	})
}

// deployTx builds a contract deployment from the faucet and records the
// eventual address in reg.
func (g *Generator) deployTx(runtime []byte, reg *[]types.Address) *chain.Transaction {
	nonce := g.nonceOf(g.faucet)
	addr := types.ContractAddress(g.faucet, nonce)
	*reg = append(*reg, addr)
	if g.comm != nil {
		if perComm := g.comm.registryFor(reg, g); perComm != nil {
			comm := -1
			if g.deployComm != nil {
				comm = *g.deployComm
				g.deployComm = nil
			}
			g.comm.addContract(g.rng, addr, perComm, comm)
		}
	}
	return g.noteTx(&chain.Transaction{
		Nonce: nonce, From: g.faucet, To: nil,
		Data: evm.DeployWrapper(runtime), GasLimit: 5_000_000, GasPrice: 1,
		// Endow contracts that pay out.
		Value: evm.WordFromUint64(1_000_000),
	})
}

// Done reports whether the schedule is exhausted.
func (g *Generator) Done() bool { return g.comp.arrival.done(g) }

// NextBlock generates and executes one block of composition-appropriate
// transactions. It returns a nil block with ok=true for a gap in the
// schedule, and ok=false once the schedule is exhausted. This is the
// pipeline engine: the arrival layer plans the block, the scenario layer
// emits its transactions through the population machinery, and the chain
// substrate executes them.
func (g *Generator) NextBlock() (*Block, bool, error) {
	if g.Done() {
		return nil, false, nil
	}
	plan, ok := g.comp.arrival.plan(g)
	if !ok {
		return nil, false, nil
	}
	if plan.skip {
		// Gap in the schedule: skip forward.
		g.comp.arrival.advance(g)
		return nil, true, nil
	}
	g.beginBlock(plan.time)
	g.comp.scenario.emit(g, plan)
	block, err := g.executeAt(plan.time)
	g.comp.arrival.advance(g)
	if err != nil {
		return nil, false, err
	}
	return block, true, nil
}

// eraPlanner is the closed-loop arrival layer of the era composition: one
// block per BlockInterval, its action count drawn from the era's
// interpolated daily rate.
type eraPlanner struct{}

func (eraPlanner) plan(g *Generator) (blockPlan, bool) {
	era := eraAt(g.cfg.Eras, g.now)
	if era == nil {
		return blockPlan{skip: true}, true
	}
	perBlock := era.rateAt(g.now) * g.cfg.Scale * g.cfg.BlockInterval.Seconds() / 86_400
	count := int(perBlock)
	if g.rng.Float64() < perBlock-float64(count) {
		count++
	}
	return blockPlan{time: g.now, count: count, era: era}, true
}

func (eraPlanner) advance(g *Generator) { g.now = g.now.Add(g.cfg.BlockInterval) }

func (eraPlanner) done(g *Generator) bool { return !g.now.Before(g.end) }

// eraEmitter is the era composition's scenario layer: era-paced contract
// deployments plus the era's TxMix, exactly the paper-shaped closed-loop
// workload.
type eraEmitter struct{}

func (eraEmitter) emit(g *Generator, plan blockPlan) {
	era := plan.era
	// Era-paced contract deployments.
	perBlockDeploys := era.DeploysPerDay * g.cfg.BlockInterval.Seconds() / 86_400
	if g.rng.Float64() < perBlockDeploys {
		g.deployEraContract(era)
	}
	for i := 0; i < plan.count; i++ {
		g.eraAction(era)
	}
}

// deployEraContract deploys a random archetype weighted toward the era's mix.
func (g *Generator) deployEraContract(era *Era) {
	switch g.rng.Intn(5) {
	case 0:
		g.appendTx(g.deployTx(TokenRuntime(), &g.tokens))
	case 1:
		g.appendTx(g.deployTx(WalletRuntime(), &g.wallets))
	case 2:
		g.appendTx(g.deployTx(GameRuntime(), &g.games))
	case 3:
		g.appendTx(g.deployTx(AirdropRuntime(), &g.airdrops))
	default:
		token := g.tokens[g.rng.Intn(len(g.tokens))]
		owner := g.accounts[g.rng.Intn(len(g.accounts))]
		if g.comm != nil {
			// A shard-aware crowdsale is built around one community's
			// token and owner and lives in that community.
			comm := g.rng.Intn(g.comm.n)
			if local := g.comm.tokens[comm]; len(local) > 0 {
				token = local[g.rng.Intn(len(local))]
			}
			if local := g.comm.accounts[comm]; len(local) > 0 {
				owner = local[g.rng.Intn(len(local))]
			}
			g.deployComm = &comm
		}
		g.appendTx(g.deployTx(CrowdsaleRuntime(token, owner), &g.crowdsales))
	}
}

// eraAction emits one logical user action of the era's mix (possibly
// preceded by a faucet top-up transaction).
func (g *Generator) eraAction(era *Era) {
	// Attack-era dummy account creation takes priority.
	if era.DummyFrac > 0 && g.rng.Float64() < era.DummyFrac {
		g.dummyAction()
		return
	}
	r := g.rng.Float64()
	m := era.Mix
	switch {
	case r < m.Transfer:
		g.transferAction(era.NewAccountFrac)
	case r < m.Transfer+m.Token:
		g.tokenAction()
	case r < m.Transfer+m.Token+m.Wallet:
		g.walletAction()
	case r < m.Transfer+m.Token+m.Wallet+m.Crowdsale:
		g.crowdsaleAction()
	case r < m.Transfer+m.Token+m.Wallet+m.Crowdsale+m.Game:
		g.gameAction()
	default:
		g.airdropAction()
	}
}

// dummyAction mints a throwaway account from an attacker, creating a vertex
// that is never touched again.
func (g *Generator) dummyAction() {
	if len(g.attackers) == 0 {
		for i := 0; i < 8; i++ {
			g.attackers = append(g.attackers, g.newAddress())
		}
		// Fund attackers generously in-band.
		for _, a := range g.attackers {
			g.appendTx(g.transferTx(g.faucet, a, 1<<40))
		}
		g.dummyAction()
		return
	}
	attacker := g.attackers[g.rng.Intn(len(g.attackers))]
	victim := g.newAddress()
	tx := g.transferTx(attacker, victim, 1)
	// Attacker running dry: top up.
	if g.avail(attacker) < 1<<20 {
		g.appendTx(g.transferTx(g.faucet, attacker, 1<<40))
	}
	g.appendTx(tx)
}

// transferAction is a plain transfer; with probability newFrac the
// recipient is a brand-new account (this is how the population grows).
func (g *Generator) transferAction(newFrac float64) {
	value := uint64(1_000 + g.rng.Intn(100_000))
	var to types.Address
	newAccount := g.rng.Float64() < newFrac
	if newAccount {
		value = initialFunding // first transfer funds the account
	}
	sender, topup := g.pickSender(value + 50_000)
	if newAccount {
		to = g.newAddress()
		g.addAccountNear(to, sender)
	} else {
		to = g.pickTarget(sender)
	}
	g.appendTx(topup)
	g.appendTx(g.transferTx(sender, to, value))
}

// tokenAction calls a token contract's transfer.
func (g *Generator) tokenAction() {
	sender, topup := g.pickSender(300_000)
	token := g.pickContract(sender, &g.tokens)
	recipient := g.pickTarget(sender)
	amount := evm.WordFromUint64(uint64(1 + g.rng.Intn(1000)))
	data := make([]byte, 64)
	rb := evm.WordFromBytes(recipient[:]).Bytes32()
	ab := amount.Bytes32()
	copy(data[0:32], rb[:])
	copy(data[32:64], ab[:])
	g.appendTx(topup)
	g.appendTx(g.noteTx(&chain.Transaction{
		Nonce: g.nonceOf(sender), From: sender, To: &token,
		Data: data, GasLimit: 300_000, GasPrice: 1,
	}))
}

// walletAction sends value through a wallet contract.
func (g *Generator) walletAction() {
	value := uint64(100 + g.rng.Intn(10_000))
	sender, topup := g.pickSender(value + 300_000)
	wallet := g.pickContract(sender, &g.wallets)
	target := g.pickTarget(sender)
	data := make([]byte, 32)
	tb := evm.WordFromBytes(target[:]).Bytes32()
	copy(data, tb[:])
	g.appendTx(topup)
	g.appendTx(g.noteTx(&chain.Transaction{
		Nonce: g.nonceOf(sender), From: sender, To: &wallet,
		Value: evm.WordFromUint64(value), Data: data, GasLimit: 300_000, GasPrice: 1,
	}))
}

// crowdsaleAction participates in a crowdsale.
func (g *Generator) crowdsaleAction() {
	value := uint64(1_000 + g.rng.Intn(50_000))
	sender, topup := g.pickSender(value + 500_000)
	sale := g.pickContract(sender, &g.crowdsales)
	g.appendTx(topup)
	g.appendTx(g.noteTx(&chain.Transaction{
		Nonce: g.nonceOf(sender), From: sender, To: &sale,
		Value: evm.WordFromUint64(value), GasLimit: 500_000, GasPrice: 1,
	}))
}

// gameAction plays a game contract.
func (g *Generator) gameAction() {
	sender, topup := g.pickSender(500_000)
	game := g.pickContract(sender, &g.games)
	g.appendTx(topup)
	g.appendTx(g.noteTx(&chain.Transaction{
		Nonce: g.nonceOf(sender), From: sender, To: &game,
		Value: evm.WordFromUint64(10), GasLimit: 500_000, GasPrice: 1,
	}))
}

// airdropAction distributes to a batch of targets, some brand new.
func (g *Generator) airdropAction() {
	n := 2 + g.rng.Intn(maxAirdropFanout-1)
	sender, topup := g.pickSender(uint64(200_000 + n*40_000))
	drop := g.pickContract(sender, &g.airdrops)
	data := make([]byte, 32*(n+1))
	nb := evm.WordFromUint64(uint64(n)).Bytes32()
	copy(data[0:32], nb[:])
	for i := 0; i < n; i++ {
		var target types.Address
		if g.rng.Float64() < 0.3 {
			target = g.newAddress()
			g.addAccountNear(target, sender)
		} else {
			target = g.pickTarget(sender)
		}
		tb := evm.WordFromBytes(target[:]).Bytes32()
		copy(data[32*(i+1):], tb[:])
	}
	g.appendTx(topup)
	g.appendTx(g.noteTx(&chain.Transaction{
		Nonce: g.nonceOf(sender), From: sender, To: &drop,
		Data: data, GasLimit: uint64(200_000 + n*40_000), GasPrice: 1,
	}))
}
