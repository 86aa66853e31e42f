// Opsim: the paper's edge-cut, made operational. A synthetic Ethereum
// history is generated once; then, for every partitioning method, the same
// records are replayed twice in lockstep — through the abstract simulator
// (which places first-seen accounts and fires its repartitioning policy)
// and through a live sharded chain (k real per-shard states executing real
// transactions). The simulator's repartitions become real work on the
// chain: batched state migrations under the migration model, re-homed
// future placements under the receipts model. The edge-cut column and the
// operational columns come out of the same run, so the proxy claim can be
// read off a single table.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"ethpart/internal/experiments"
	"ethpart/internal/report"
	"ethpart/internal/shardchain"
	"ethpart/internal/sim"
	"ethpart/internal/workload"
)

func main() {
	// One month of history, small enough for a few seconds of runtime.
	eras := []workload.Era{{
		Name:          "boom",
		Start:         time.Date(2017, 5, 1, 0, 0, 0, 0, time.UTC),
		End:           time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC),
		TxPerDayStart: 20_000, TxPerDayEnd: 40_000, Kind: workload.GrowthExponential,
		NewAccountFrac: 0.25, DeploysPerDay: 10,
		Mix: workload.TxMix{Transfer: 0.55, Token: 0.2, Wallet: 0.1, Crowdsale: 0.06, Game: 0.04, Airdrop: 0.05},
	}}
	ds, err := experiments.NewDataset(experiments.Params{
		Seed: 42, Scale: 0.01, Eras: eras,
		BlockInterval:    time.Hour,
		RepartitionEvery: 7 * 24 * time.Hour,
	})
	if err != nil {
		log.Fatal(err)
	}
	const k = 4
	fmt.Printf("history: %s interactions, replaying through %d live shards\n\n",
		report.FormatCount(int64(len(ds.GT.Records))), k)

	rows, err := ds.Operational(k)
	if err != nil {
		log.Fatal(err)
	}
	headers, table := experiments.OpsTable(rows,
		"method", "model", "dyn-cut=dyn_cut", "cross-txs", "messages", "latency(blk)",
		"migrations", "slots=migrated_slots")
	if err := report.Table(os.Stdout, headers, table); err != nil {
		log.Fatal(err)
	}

	// Pull out the headline comparison: hashing vs METIS under receipts.
	find := func(m sim.Method, model shardchain.Model) *experiments.OpsRow {
		for i := range rows {
			if rows[i].Result.Method == m && rows[i].Result.Model == model {
				return &rows[i]
			}
		}
		return nil
	}
	hash := find(sim.MethodHash, shardchain.ModelReceipts)
	metis := find(sim.MethodMetis, shardchain.ModelReceipts)
	fmt.Printf("\nUnder async receipts, METIS's lower cut (%.3f vs %.3f) becomes\n",
		metis.Result.Sim.OverallDynamicCut, hash.Result.Sim.OverallDynamicCut)
	fmt.Printf("%s cross-shard messages vs %s for hashing — the cut is a real\n",
		report.FormatCount(metis.Result.Totals.Messages),
		report.FormatCount(hash.Result.Totals.Messages))
	fmt.Println("proxy for settlement traffic. Under state migration, compare the")
	fmt.Println("migration and slots columns instead: repartitioning methods pay for")
	fmt.Println("their better cut in bulk-moved state, the trade-off the paper's")
	fmt.Println("move counts gesture at, measured here in actual storage slots.")
}
