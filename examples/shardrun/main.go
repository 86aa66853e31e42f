// Shardrun: actually run a sharded blockchain. A training phase builds the
// interaction graph and partitions it (hash vs multilevel); an execution
// phase then routes live transactions through k real shard chains under
// both multi-shard models (async receipts vs state migration) and reports
// what the paper's edge-cut number turns into operationally: cross-shard
// messages, settlement latency and migrated state.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"

	"ethpart/internal/chain"
	"ethpart/internal/evm"
	"ethpart/internal/graph"
	"ethpart/internal/partition"
	"ethpart/internal/partition/multilevel"
	"ethpart/internal/report"
	"ethpart/internal/shardchain"
	"ethpart/internal/types"
	"ethpart/internal/workload"
)

const (
	users  = 300
	k      = 4
	blocks = 60
	txsPer = 50
)

// world holds the shared scenario: users with community-skewed token usage.
type world struct {
	rng    *rand.Rand
	users  []types.Address
	home   []int // user -> favourite token index
	tokens []types.Address
}

// newWorld builds the user population.
func newWorld(seed int64) *world {
	w := &world{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < users; i++ {
		w.users = append(w.users, types.AddressFromSeq(uint64(100+i)))
		w.home = append(w.home, w.rng.Intn(k))
	}
	return w
}

// genTx produces one transaction: mostly same-community token transfers,
// sometimes plain transfers to a random user.
func (w *world) genTx(nonces map[types.Address]uint64) *chain.Transaction {
	ui := w.rng.Intn(users)
	user := w.users[ui]
	nonce := nonces[user]
	nonces[user]++
	if w.rng.Float64() < 0.7 {
		token := w.tokens[w.home[ui]]
		peer := w.users[w.rng.Intn(users)]
		var data [64]byte
		pb := evm.WordFromBytes(peer[:]).Bytes32()
		ab := evm.WordFromUint64(uint64(1 + w.rng.Intn(50))).Bytes32()
		copy(data[0:32], pb[:])
		copy(data[32:64], ab[:])
		return &chain.Transaction{
			Nonce: nonce, From: user, To: &token,
			Data: data[:], GasLimit: 300_000, GasPrice: 1,
		}
	}
	peer := w.users[w.rng.Intn(users)]
	return &chain.Transaction{
		Nonce: nonce, From: user, To: &peer,
		Value: evm.WordFromUint64(uint64(100 + w.rng.Intn(1_000))), GasLimit: 100_000, GasPrice: 1,
	}
}

func main() {
	// ---- Training phase: build the graph on a single chain. ----
	w := newWorld(11)
	deployer := types.AddressFromSeq(1)
	alloc := map[types.Address]evm.Word{deployer: evm.WordFromUint64(1 << 50)}
	for _, u := range w.users {
		alloc[u] = evm.WordFromUint64(1 << 30)
	}
	single := chain.NewStateWithAlloc(alloc)
	miner := types.AddressFromSeq(2)
	const gasLimit = 8_000_000
	for i := 0; i < k; i++ {
		tx := &chain.Transaction{
			Nonce: uint64(i), From: deployer,
			Data: evm.DeployWrapper(workload.TokenRuntime()), GasLimit: 5_000_000, GasPrice: 1,
		}
		x := chain.ExecuteBlock(single, miner, gasLimit, []*chain.Transaction{tx})
		if len(x.Skipped) > 0 || !x.Receipts[0].Success {
			log.Fatal("token deploy failed")
		}
		w.tokens = append(w.tokens, *x.Receipts[0].ContractAddress)
	}

	g := graph.New()
	addrID := map[types.Address]graph.VertexID{}
	idAddr := map[graph.VertexID]types.Address{}
	vid := func(a types.Address) graph.VertexID {
		if id, ok := addrID[a]; ok {
			return id
		}
		id := graph.VertexID(len(addrID))
		addrID[a] = id
		idAddr[id] = a
		return id
	}
	kindOf := func(a types.Address) graph.Kind {
		if len(single.GetCode(a)) > 0 {
			return graph.KindContract
		}
		return graph.KindAccount
	}
	nonces := map[types.Address]uint64{}
	for b := 0; b < blocks; b++ {
		var txs []*chain.Transaction
		for t := 0; t < txsPer; t++ {
			txs = append(txs, w.genTx(nonces))
		}
		x := chain.ExecuteBlock(single, miner, gasLimit, txs)
		if len(x.Skipped) > 0 {
			log.Fatalf("training skipped txs: %v", x.Skipped[0])
		}
		for i := range x.Receipts {
			for _, tr := range x.Receipts[i].Traces {
				if err := g.AddInteraction(vid(tr.From), vid(tr.To),
					kindOf(tr.From), kindOf(tr.To), 1); err != nil {
					log.Fatal(err)
				}
			}
		}
	}
	fmt.Printf("training graph: %d vertices, %d edges\n\n", g.VertexCount(), g.EdgeCount())

	// ---- Partition the training graph two ways. ----
	csr := graph.NewCSR(g)
	assignments := map[string]func(types.Address) (int, bool){}
	hashParts, err := partition.Hash{}.Partition(csr, k)
	if err != nil {
		log.Fatal(err)
	}
	mlParts, err := multilevel.New(multilevel.Config{Seed: 7}).Partition(csr, k)
	if err != nil {
		log.Fatal(err)
	}
	toAssign := func(parts []int) func(types.Address) (int, bool) {
		m := map[types.Address]int{}
		for i, id := range csr.IDs {
			m[idAddr[id]] = parts[i]
		}
		return func(a types.Address) (int, bool) {
			s, ok := m[a]
			return s, ok
		}
	}
	assignments["hash"] = toAssign(hashParts)
	assignments["multilevel"] = toAssign(mlParts)

	// ---- Execution phase: same future workload on real shards. ----
	var rows [][]string
	for _, name := range []string{"hash", "multilevel"} {
		for _, model := range []shardchain.Model{shardchain.ModelReceipts, shardchain.ModelMigration} {
			// Rebuild the identical scenario (fresh RNG, fresh nonces).
			w2 := newWorld(11)
			w2.tokens = w.tokens
			sc, err := shardchain.New(shardchain.Config{K: k, Model: model},
				alloc, assignments[name])
			if err != nil {
				log.Fatal(err)
			}
			// Install the token contracts on their assigned shards.
			for _, token := range w.tokens {
				st := sc.StateOf(sc.HomeOf(token))
				st.SetCode(token, single.GetCode(token))
				st.DiscardJournal()
			}
			nonces := map[types.Address]uint64{}
			for b := 0; b < blocks; b++ {
				var txs []*chain.Transaction
				for t := 0; t < txsPer; t++ {
					txs = append(txs, w2.genTx(nonces))
				}
				sc.Step(txs)
			}
			sc.Step(nil) // settle trailing receipts
			st := sc.Stats()
			total := st.LocalTxs + st.CrossTxs
			meanLatency := "-"
			if st.ReceiptsSettled > 0 {
				meanLatency = fmt.Sprintf("%.2f", float64(st.SettlementBlocks)/float64(st.ReceiptsSettled))
			}
			rows = append(rows, []string{
				name, model.String(),
				fmt.Sprintf("%.1f%%", 100*float64(st.CrossTxs)/float64(total)),
				report.FormatCount(st.Messages),
				meanLatency,
				report.FormatCount(st.Migrations),
				report.FormatCount(st.MigratedSlots),
				report.FormatCount(st.Failed),
			})
		}
	}
	if err := report.Table(os.Stdout, []string{
		"partition", "model", "cross-txs", "messages", "latency(blk)", "migrations", "slots", "failed",
	}, rows); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nThe multilevel partition turns most transactions local: fewer")
	fmt.Println("cross-shard messages under receipts, fewer account migrations under")
	fmt.Println("state movement — the edge-cut metric made operational.")
}
