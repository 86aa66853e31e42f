// Tokenshard: deploy real contracts on the chain substrate, execute a
// token-heavy dapp workload through the EVM, extract the interaction graph
// from execution traces, and study how well a dapp-dominated graph shards —
// the "ICO boom" workload the paper's 2017 data is full of.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"ethpart/internal/chain"
	"ethpart/internal/evm"
	"ethpart/internal/graph"
	"ethpart/internal/metrics"
	"ethpart/internal/partition"
	"ethpart/internal/partition/multilevel"
	"ethpart/internal/trace"
	"ethpart/internal/types"
	"ethpart/internal/workload"
)

func main() {
	rng := rand.New(rand.NewSource(42))

	// Genesis: one funded deployer plus a user population.
	deployer := types.AddressFromSeq(1)
	alloc := map[types.Address]evm.Word{deployer: evm.WordFromUint64(1 << 50)}
	const users = 200
	userAddrs := make([]types.Address, users)
	for i := range userAddrs {
		userAddrs[i] = types.AddressFromSeq(uint64(10 + i))
		alloc[userAddrs[i]] = evm.WordFromUint64(1 << 30)
	}
	st := chain.NewStateWithAlloc(alloc)
	miner := types.AddressFromSeq(2)
	const gasLimit = 8_000_000
	number := uint64(0) // the last executed block's number; genesis is 0

	// Deploy three tokens and a crowdsale per token.
	nonce := uint64(0)
	deploy := func(runtime []byte) types.Address {
		tx := &chain.Transaction{
			Nonce: nonce, From: deployer,
			Data: evm.DeployWrapper(runtime), GasLimit: 5_000_000, GasPrice: 1,
		}
		nonce++
		number++
		x := chain.ExecuteBlock(st, miner, gasLimit, []*chain.Transaction{tx})
		if len(x.Skipped) > 0 || !x.Receipts[0].Success {
			log.Fatalf("deploy failed in block %d: %v %v", number, x.Skipped, x.Receipts[0].Err)
		}
		return *x.Receipts[0].ContractAddress
	}
	var tokens, sales []types.Address
	for i := 0; i < 3; i++ {
		token := deploy(workload.TokenRuntime())
		tokens = append(tokens, token)
		sales = append(sales, deploy(workload.CrowdsaleRuntime(token, deployer)))
	}
	fmt.Printf("deployed %d tokens and %d crowdsales\n", len(tokens), len(sales))

	// Each user has a "home" token (Zipf-ish: token 0 is the hottest) and
	// sends token transfers to other users of the same token, with
	// occasional crowdsale buys.
	home := make([]int, users)
	for i := range home {
		r := rng.Float64()
		switch {
		case r < 0.6:
			home[i] = 0
		case r < 0.85:
			home[i] = 1
		default:
			home[i] = 2
		}
	}
	nonces := make(map[types.Address]uint64)
	reg := trace.NewRegistry()
	isContract := func(a types.Address) bool { return len(st.GetCode(a)) > 0 }
	g := graph.New()

	const blocks = 50
	for b := 0; b < blocks; b++ {
		var txs []*chain.Transaction
		for t := 0; t < 40; t++ {
			ui := rng.Intn(users)
			user := userAddrs[ui]
			tok := home[ui]
			if rng.Float64() < 0.15 {
				// Crowdsale buy.
				sale := sales[tok]
				txs = append(txs, &chain.Transaction{
					Nonce: nonces[user], From: user, To: &sale,
					Value: evm.WordFromUint64(1_000), GasLimit: 500_000, GasPrice: 1,
				})
			} else {
				// Token transfer to a same-community peer.
				peer := userAddrs[rng.Intn(users)]
				var data [64]byte
				pb := evm.WordFromBytes(peer[:]).Bytes32()
				ab := evm.WordFromUint64(uint64(1 + rng.Intn(50))).Bytes32()
				copy(data[0:32], pb[:])
				copy(data[32:64], ab[:])
				token := tokens[tok]
				txs = append(txs, &chain.Transaction{
					Nonce: nonces[user], From: user, To: &token,
					Data: data[:], GasLimit: 300_000, GasPrice: 1,
				})
			}
			nonces[user]++
		}
		number++
		x := chain.ExecuteBlock(st, miner, gasLimit, txs)
		if len(x.Skipped) > 0 {
			log.Fatalf("block %d skipped %d txs: %v", number, len(x.Skipped), x.Skipped[0])
		}
		for _, rec := range trace.AppendReceipts(nil, uint32(number), int64(2000+b), nil, x.Receipts, reg, isContract) {
			if err := rec.Apply(g); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Printf("executed %d blocks: graph has %d vertices, %d edges\n\n",
		blocks, g.VertexCount(), g.EdgeCount())

	// Shard the dapp graph at k = 2, 4, 8.
	csr := graph.NewCSR(g)
	ml := multilevel.New(multilevel.Config{Seed: 3})
	fmt.Println("k   method      dyn-cut  dyn-balance")
	for _, k := range []int{2, 4, 8} {
		for _, m := range []struct {
			name string
			p    partition.Partitioner
		}{{"hash", partition.Hash{}}, {"multilevel", ml}} {
			parts, err := m.p.Partition(csr, k)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-3d %-10s %6.1f%%  %8.3f\n", k, m.name,
				100*metrics.EdgeCutParts(csr, parts, true),
				metrics.BalanceParts(csr, parts, k, true))
		}
	}
	fmt.Println("\nToken communities shard well until k exceeds the community count;")
	fmt.Println("the hot token then has to be split and the cut jumps — the paper's")
	fmt.Println("edge-cut-vs-k trend, driven by real EVM execution traces.")
}
