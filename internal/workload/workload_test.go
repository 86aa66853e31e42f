package workload

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"ethpart/internal/chain"
	"ethpart/internal/evm"
	"ethpart/internal/graph"
	"ethpart/internal/stats"
	"ethpart/internal/trace"
	"ethpart/internal/types"
)

// apply executes tx on st into a fresh receipt, mined by a fixed miner.
func apply(st *chain.State, tx *chain.Transaction) (*chain.Receipt, error) {
	r := new(chain.Receipt)
	return r, chain.ApplyTransactionInto(st, tx, types.AddressFromSeq(9), nil, r)
}

// deployAndCall deploys runtime from a funded account and calls it once,
// returning the receipt of the call.
func deployAndCall(t *testing.T, runtime []byte, value uint64, data []byte, endow uint64) (*chain.Receipt, *chain.State) {
	t.Helper()
	sender := types.AddressFromSeq(1)
	st := chain.NewStateWithAlloc(map[types.Address]evm.Word{
		sender: evm.WordFromUint64(1 << 40),
	})
	deploy := &chain.Transaction{
		Nonce: 0, From: sender, Data: evm.DeployWrapper(runtime),
		Value: evm.WordFromUint64(endow), GasLimit: 5_000_000, GasPrice: 1,
	}
	r, err := apply(st, deploy)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Success {
		t.Fatalf("deploy failed: %v", r.Err)
	}
	contract := *r.ContractAddress
	call := &chain.Transaction{
		Nonce: 1, From: sender, To: &contract,
		Value: evm.WordFromUint64(value), Data: data,
		GasLimit: 2_000_000, GasPrice: 1,
	}
	r, err = apply(st, call)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Success {
		t.Fatalf("call failed: %v", r.Err)
	}
	return r, st
}

func TestTokenRuntimeMovesBalances(t *testing.T) {
	recipient := types.AddressFromSeq(42)
	amount := evm.WordFromUint64(250)
	var data [64]byte
	rb := evm.WordFromBytes(recipient[:]).Bytes32()
	ab := amount.Bytes32()
	copy(data[0:32], rb[:])
	copy(data[32:64], ab[:])

	r, st := deployAndCall(t, TokenRuntime(), 0, data[:], 0)
	contract := r.Traces[0].To
	got := st.GetState(contract, evm.WordFromBytes(recipient[:]))
	if got.Uint64() != 250 {
		t.Errorf("token balance of recipient = %v, want 250", got)
	}
	// Token transfers produce no internal calls.
	if len(r.Traces) != 1 {
		t.Errorf("traces = %d, want 1", len(r.Traces))
	}
}

func TestWalletRuntimeForwardsValue(t *testing.T) {
	target := types.AddressFromSeq(43)
	var data [32]byte
	tb := evm.WordFromBytes(target[:]).Bytes32()
	copy(data[:], tb[:])

	r, st := deployAndCall(t, WalletRuntime(), 777, data[:], 0)
	if got := st.GetBalance(target).Uint64(); got != 777 {
		t.Errorf("forwarded = %d, want 777", got)
	}
	if len(r.Traces) != 2 || r.Traces[1].Kind != evm.KindCall || r.Traces[1].To != target {
		t.Errorf("traces = %+v", r.Traces)
	}
}

func TestCrowdsaleRuntimeTwoInternalCalls(t *testing.T) {
	token := types.AddressFromSeq(50) // plain address: the call still traces
	owner := types.AddressFromSeq(51)
	r, st := deployAndCall(t, CrowdsaleRuntime(token, owner), 5_000, nil, 0)
	if len(r.Traces) != 3 {
		t.Fatalf("traces = %d, want 3 (tx + token call + owner pay): %+v", len(r.Traces), r.Traces)
	}
	if r.Traces[1].To != token {
		t.Errorf("first internal call to %v, want token", r.Traces[1].To)
	}
	if r.Traces[2].To != owner || r.Traces[2].Value.Uint64() != 5_000 {
		t.Errorf("owner payout trace = %+v", r.Traces[2])
	}
	if got := st.GetBalance(owner).Uint64(); got != 5_000 {
		t.Errorf("owner received %d, want 5000", got)
	}
}

func TestGameRuntimePaysEveryEighthMove(t *testing.T) {
	sender := types.AddressFromSeq(1)
	st := chain.NewStateWithAlloc(map[types.Address]evm.Word{
		sender: evm.WordFromUint64(1 << 40),
	})
	deploy := &chain.Transaction{
		Nonce: 0, From: sender, Data: evm.DeployWrapper(GameRuntime()),
		Value: evm.WordFromUint64(1_000_000), GasLimit: 5_000_000, GasPrice: 1,
	}
	r, err := apply(st, deploy)
	if err != nil || !r.Success {
		t.Fatalf("deploy: %v %v", err, r.Err)
	}
	game := *r.ContractAddress

	payouts := 0
	for i := 1; i <= 16; i++ {
		call := &chain.Transaction{
			Nonce: uint64(i), From: sender, To: &game,
			Value: evm.WordFromUint64(10), GasLimit: 2_000_000, GasPrice: 1,
		}
		r, err := apply(st, call)
		if err != nil || !r.Success {
			t.Fatalf("move %d: %v %v", i, err, r.Err)
		}
		for _, tr := range r.Traces {
			if tr.Kind == evm.KindCall && tr.To == sender {
				payouts++
			}
		}
	}
	if payouts != 2 {
		t.Errorf("payouts in 16 moves = %d, want 2", payouts)
	}
	// Counter stored at slot 0.
	if got := st.GetState(game, evm.Word{}).Uint64(); got != 16 {
		t.Errorf("counter = %d, want 16", got)
	}
}

func TestAirdropRuntimeFansOut(t *testing.T) {
	targets := []types.Address{
		types.AddressFromSeq(60), types.AddressFromSeq(61), types.AddressFromSeq(62),
	}
	data := make([]byte, 32*(len(targets)+1))
	nb := evm.WordFromUint64(uint64(len(targets))).Bytes32()
	copy(data[0:32], nb[:])
	for i, target := range targets {
		tb := evm.WordFromBytes(target[:]).Bytes32()
		copy(data[32*(i+1):], tb[:])
	}
	r, _ := deployAndCall(t, AirdropRuntime(), 0, data, 0)
	if len(r.Traces) != 1+len(targets) {
		t.Fatalf("traces = %d, want %d: %+v", len(r.Traces), 1+len(targets), r.Traces)
	}
	for i, target := range targets {
		tr := r.Traces[i+1]
		if tr.Kind != evm.KindCall || tr.To != target {
			t.Errorf("trace %d = %+v, want call to %v", i+1, tr, target)
		}
	}
}

// miniEras returns a compressed two-era schedule for fast tests.
func miniEras() []Era {
	return []Era{
		{
			Name:  "growth",
			Start: date(2016, time.January, 1), End: date(2016, time.January, 11),
			TxPerDayStart: 2_000, TxPerDayEnd: 8_000, Kind: GrowthExponential,
			NewAccountFrac: 0.3, DeploysPerDay: 10,
			Mix: TxMix{Transfer: 0.6, Token: 0.15, Wallet: 0.1, Crowdsale: 0.05, Game: 0.05, Airdrop: 0.05},
		},
		{
			Name:  "attack",
			Start: date(2016, time.January, 11), End: date(2016, time.January, 16),
			TxPerDayStart: 30_000, TxPerDayEnd: 30_000, Kind: GrowthLinear,
			NewAccountFrac: 0.1, DummyFrac: 0.8, DeploysPerDay: 2,
			Mix: TxMix{Transfer: 0.15, Token: 0.02, Wallet: 0.01, Crowdsale: 0.01, Game: 0.005, Airdrop: 0.005},
		},
	}
}

func TestGeneratorRunsScheduleWithoutSkips(t *testing.T) {
	gen, err := New(Config{Seed: 3, Scale: 0.05, Eras: miniEras(), BlockInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	// Every executed block must be numbered after the one before it (the
	// two bootstrap blocks come first).
	prev := uint64(gen.Stats().Blocks)
	blocks := 0
	for {
		b, ok, err := gen.NextBlock()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		blocks++
		if b == nil {
			continue // schedule gap
		}
		if b.Number != prev+1 {
			t.Fatalf("block %d does not follow block %d", b.Number, prev)
		}
		prev = b.Number
	}
	st := gen.Stats()
	if st.Skipped != 0 {
		t.Errorf("generator skipped %d transactions", st.Skipped)
	}
	if st.Transactions < 500 {
		t.Errorf("only %d transactions generated", st.Transactions)
	}
	if st.DummyAccounts == 0 {
		t.Error("attack era produced no dummy accounts")
	}
	if st.Deployments < 5 {
		t.Errorf("only %d deployments", st.Deployments)
	}
	if blocks < 300 {
		t.Errorf("only %d blocks", blocks)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	run := func() types.Hash {
		gen, err := New(Config{Seed: 7, Scale: 0.02, Eras: miniEras(), BlockInterval: 2 * time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		for {
			_, ok, err := gen.NextBlock()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
		// The root of the final state covers every account.
		return gen.State().Commit()
	}
	if run() != run() {
		t.Error("same seed must produce an identical final state")
	}
}

func TestGeneratorAttackSpikesRate(t *testing.T) {
	gen, err := New(Config{Seed: 5, Scale: 0.05, Eras: miniEras(), BlockInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	attackStart := date(2016, time.January, 11)
	var before, after, beforeBlocks, afterBlocks int
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
		if time.Unix(blk.Time, 0).UTC().Before(attackStart) {
			before += len(blk.Receipts)
			beforeBlocks++
		} else {
			after += len(blk.Receipts)
			afterBlocks++
		}
	}
	rateBefore := float64(before) / float64(beforeBlocks)
	rateAfter := float64(after) / float64(afterBlocks)
	if rateAfter < 2*rateBefore {
		t.Errorf("attack rate %.1f tx/block vs %.1f before; want a clear spike", rateAfter, rateBefore)
	}
}

func TestEraRateInterpolation(t *testing.T) {
	e := Era{
		Start: date(2016, time.January, 1), End: date(2016, time.January, 11),
		TxPerDayStart: 100, TxPerDayEnd: 1600, Kind: GrowthExponential,
	}
	if got := e.rateAt(e.Start); got != 100 {
		t.Errorf("rate at start = %v", got)
	}
	mid := e.rateAt(date(2016, time.January, 6))
	if mid < 350 || mid > 450 { // geometric mean of 100 and 1600 is 400
		t.Errorf("exponential midpoint = %v, want ≈ 400", mid)
	}
	e.Kind = GrowthLinear
	mid = e.rateAt(date(2016, time.January, 6))
	if mid < 800 || mid > 900 { // arithmetic mean is 850
		t.Errorf("linear midpoint = %v, want ≈ 850", mid)
	}
}

func TestEraAt(t *testing.T) {
	eras := miniEras()
	if e := eraAt(eras, date(2016, time.January, 5)); e == nil || e.Name != "growth" {
		t.Errorf("eraAt(Jan 5) = %v", e)
	}
	if e := eraAt(eras, date(2016, time.January, 12)); e == nil || e.Name != "attack" {
		t.Errorf("eraAt(Jan 12) = %v", e)
	}
	if e := eraAt(eras, date(2017, time.January, 1)); e != nil {
		t.Errorf("eraAt outside schedule = %v, want nil", e)
	}
}

func TestDefaultErasContiguousAndOrdered(t *testing.T) {
	eras := DefaultEras()
	for i := 1; i < len(eras); i++ {
		if !eras[i].Start.Equal(eras[i-1].End) {
			t.Errorf("gap between era %q and %q", eras[i-1].Name, eras[i].Name)
		}
	}
	for _, e := range eras {
		if !e.Start.Before(e.End) {
			t.Errorf("era %q has non-positive span", e.Name)
		}
		if e.TxPerDayStart <= 0 || e.TxPerDayEnd <= 0 {
			t.Errorf("era %q has non-positive rates", e.Name)
		}
	}
}

func TestGeneratorDegreeDistributionIsHeavyTailed(t *testing.T) {
	// DESIGN.md claims the preferential-attachment targeting yields the
	// hub skew of real blockchain graphs. Validate: the degree tail index
	// of the generated graph must be in the heavy-tailed range (α < 3.5),
	// and the busiest vertex must dwarf the median.
	gen, err := New(Config{Seed: 9, Scale: 0.08, Eras: miniEras(), BlockInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	reg := trace.NewRegistry()
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
				fromID := graph.VertexID(reg.ID(tr.From))
				toID := graph.VertexID(reg.ID(tr.To))
				if err := g.AddInteraction(fromID, toID, graph.KindAccount, graph.KindAccount, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	var degrees []float64
	var maxDeg float64
	g.Vertices(func(id graph.VertexID, _ graph.Kind, _ int64) bool {
		d := float64(g.Degree(id))
		degrees = append(degrees, d)
		if d > maxDeg {
			maxDeg = d
		}
		return true
	})
	if len(degrees) < 500 {
		t.Fatalf("graph too small: %d vertices", len(degrees))
	}
	alpha, n, err := paretoAlphaMLE(degrees, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n < 100 {
		t.Fatalf("tail too small: %d", n)
	}
	if alpha > 3.5 {
		t.Errorf("degree tail index α = %.2f, want < 3.5 (heavy tail)", alpha)
	}
	med := stats.Summarize(degrees).Median
	if maxDeg < 20*med {
		t.Errorf("max degree %v vs median %v: no hub skew", maxDeg, med)
	}
}

// paretoAlphaMLE estimates the tail index α of a power-law (Pareto)
// distribution from the samples ≥ xmin using the Hill maximum-likelihood
// estimator: α = n / Σ ln(x_i/xmin). Heavy-tailed (power-law-like) data
// has small α (typically 1–3 for degree distributions); light-tailed data
// yields large values. It returns the estimate and the tail sample count.
func paretoAlphaMLE(xs []float64, xmin float64) (alpha float64, n int, err error) {
	if xmin <= 0 {
		return 0, 0, fmt.Errorf("xmin must be positive, got %v", xmin)
	}
	var sum float64
	for _, x := range xs {
		if x < xmin {
			continue
		}
		sum += math.Log(x / xmin)
		n++
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("no samples >= xmin %v", xmin)
	}
	if sum == 0 {
		return math.Inf(1), n, nil // all mass at xmin: infinitely light tail
	}
	return float64(n) / sum, n, nil
}

func TestParetoAlphaMLERecoversTailIndex(t *testing.T) {
	// Sample from a Pareto(α=2, xmin=1) via inverse transform.
	rng := rand.New(rand.NewSource(8))
	xs := make([]float64, 20000)
	for i := range xs {
		u := rng.Float64()
		xs[i] = math.Pow(1-u, -1.0/2.0)
	}
	alpha, n, err := paretoAlphaMLE(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(xs) {
		t.Errorf("tail n = %d", n)
	}
	if math.Abs(alpha-2) > 0.1 {
		t.Errorf("alpha = %v, want ≈ 2", alpha)
	}
}

func TestParetoAlphaMLEErrors(t *testing.T) {
	if _, _, err := paretoAlphaMLE([]float64{1, 2}, 0); err == nil {
		t.Error("xmin=0 must error")
	}
	if _, _, err := paretoAlphaMLE([]float64{1, 2}, 100); err == nil {
		t.Error("empty tail must error")
	}
	if alpha, _, err := paretoAlphaMLE([]float64{3, 3, 3}, 3); err != nil || !math.IsInf(alpha, 1) {
		t.Errorf("degenerate tail: alpha=%v err=%v", alpha, err)
	}
}
