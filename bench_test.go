// Package ethpart's root benchmarks report what the performance ledger
// (bench/, see bench/README.md) does not: quality metrics and scaling
// curves at benchmark scale, alongside wall-clock cost.
//
//	go test -bench=. -benchmem
//
// Fig. 1's growth curve, Fig. 5's method × k sweep, the two ablations of
// DESIGN.md §4 that turn production knobs (R-METIS window length, TR-METIS
// thresholds), the shard-engine, decay-repartition and autoscale curves,
// and the figure path's replay for CPU profiles. Throughput, per-record and per-layer costs of the
// replay, generation, directory and serving paths are the ledger's.
// Benchmarks share one synthetic history, generated once, so the
// comparisons run on identical input — the same discipline the experiments
// binary uses.
package ethpart

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ethpart/internal/chain"
	"ethpart/internal/evm"
	"ethpart/internal/experiments"
	"ethpart/internal/opsim"
	"ethpart/internal/shardchain"
	"ethpart/internal/sim"
	"ethpart/internal/trace"
	"ethpart/internal/types"
	"ethpart/internal/workload"
)

// benchParams is the shared benchmark-scale configuration: the full
// Aug-2015→Jan-2018 era schedule at a scale that keeps one simulation run
// in seconds.
var benchParams = experiments.Params{
	Seed:          1,
	Scale:         0.002,
	BlockInterval: 2 * time.Hour,
}

var (
	benchOnce sync.Once
	benchDS   *experiments.Dataset
	benchErr  error
)

// dataset lazily generates the shared history.
func dataset(b *testing.B) *experiments.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		benchDS, benchErr = experiments.NewDataset(benchParams)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchDS
}

// replayFresh runs one full simulation outside the dataset cache so that
// b.N iterations measure real work.
func replayFresh(b *testing.B, ds *experiments.Dataset, cfg sim.Config) *sim.Result {
	b.Helper()
	res, err := sim.Replay(ds.GT, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig1GraphEvolution regenerates Fig. 1: the monthly growth curve
// of the blockchain graph, with the era markers and the growth-rate fits.
func BenchmarkFig1GraphEvolution(b *testing.B) {
	ds := dataset(b)
	b.ResetTimer()
	var rows []experiments.Fig1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = ds.Fig1()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	last := rows[len(rows)-1]
	b.ReportMetric(float64(last.Vertices), "final-vertices")
	b.ReportMetric(float64(last.Edges), "final-edges")
	split := time.Date(2016, 11, 1, 0, 0, 0, 0, time.UTC)
	if pre, post, err := experiments.Fig1GrowthFit(rows, split); err == nil {
		b.ReportMetric(pre, "pre-attack-rate")
		b.ReportMetric(post, "post-attack-rate")
	}
}

// sweepConfigs builds the method × k configuration grid of a figure sweep.
func sweepConfigs(ks []int) []sim.Config {
	var cfgs []sim.Config
	for _, k := range ks {
		for _, m := range sim.Methods() {
			cfgs = append(cfgs, sim.Config{Method: m, K: k})
		}
	}
	return cfgs
}

// BenchmarkFig5ShardSweep regenerates Fig. 5: the k ∈ {2,4,8} sweep as one
// parallel replay sweep. The paper's shape: dynamic edge-cut worsens with k
// for every method; METIS-family beats hashing and KL on cut; hashing and
// KL win on balance.
func BenchmarkFig5ShardSweep(b *testing.B) {
	ds := dataset(b)
	cfgs := sweepConfigs([]int{2, 4, 8})
	b.ReportAllocs()
	b.ResetTimer()
	var results []*sim.Result
	for i := 0; i < b.N; i++ {
		var err error
		results, err = sim.RunSweep(ds.GT, cfgs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	byKey := func(m sim.Method, k int) *sim.Result {
		for i, cfg := range cfgs {
			if cfg.Method == m && cfg.K == k {
				return results[i]
			}
		}
		b.Fatalf("missing sweep result for %v k=%d", m, k)
		return nil
	}
	b.ReportMetric(byKey(sim.MethodHash, 2).OverallDynamicCut, "hash-k2-cut")
	b.ReportMetric(byKey(sim.MethodHash, 8).OverallDynamicCut, "hash-k8-cut")
	b.ReportMetric(byKey(sim.MethodMetis, 8).OverallDynamicCut, "metis-k8-cut")
}

// BenchmarkReplay replays the shared history under the two methods whose
// waves sim.Replay partitions ahead (DESIGN.md §3), at the ledger's k = 4:
// the fig-replay cells the multilevel partitioner dominates, without the
// ledger's other cells and repeats. It is the figure path to profile:
//
//	go test -run '^$' -bench 'Replay/metis' -benchtime 1x -cpuprofile cpu.prof .
func BenchmarkReplay(b *testing.B) {
	ds := dataset(b)
	for _, m := range []sim.Method{sim.MethodMetis, sim.MethodRMetis} {
		b.Run(strings.ToLower(m.String()), func(b *testing.B) {
			b.ReportAllocs()
			var res *sim.Result
			for i := 0; i < b.N; i++ {
				res = replayFresh(b, ds, sim.Config{Method: m, K: 4})
			}
			b.ReportMetric(float64(b.N*len(ds.GT.Records))/b.Elapsed().Seconds(), "records/s")
			b.ReportMetric(float64(res.TotalMoves), "moves")
		})
	}
}

// BenchmarkAblationWindow sweeps the R-METIS repartitioning window
// (DESIGN.md §4). Shorter windows track the workload more closely but move
// more state.
func BenchmarkAblationWindow(b *testing.B) {
	ds := dataset(b)
	for _, span := range []struct {
		name string
		d    time.Duration
	}{
		{"1-week", 7 * 24 * time.Hour},
		{"2-weeks", 14 * 24 * time.Hour},
		{"4-weeks", 28 * 24 * time.Hour},
	} {
		b.Run(span.name, func(b *testing.B) {
			b.ReportAllocs()
			var res *sim.Result
			for i := 0; i < b.N; i++ {
				res = replayFresh(b, ds, sim.Config{
					Method: sim.MethodRMetis, K: 4, RepartitionEvery: span.d,
				})
			}
			b.ReportMetric(res.OverallDynamicCut, "dyn-cut")
			b.ReportMetric(float64(res.TotalMoves), "moves")
			b.ReportMetric(float64(res.Repartitions), "repartitions")
		})
	}
}

// BenchmarkAblationThresholds sweeps TR-METIS trigger thresholds
// (DESIGN.md §4): tighter thresholds fire more repartitions and move more
// vertices for a better cut.
func BenchmarkAblationThresholds(b *testing.B) {
	ds := dataset(b)
	for _, th := range []struct {
		name string
		cut  float64
	}{
		{"cut-0.40", 0.40},
		{"cut-0.55", 0.55},
		{"cut-0.70", 0.70},
	} {
		b.Run(th.name, func(b *testing.B) {
			b.ReportAllocs()
			var res *sim.Result
			for i := 0; i < b.N; i++ {
				res = replayFresh(b, ds, sim.Config{
					Method: sim.MethodTRMetis, K: 4,
					CutThreshold: th.cut, BalanceThreshold: 2.5,
				})
			}
			b.ReportMetric(res.OverallDynamicCut, "dyn-cut")
			b.ReportMetric(float64(res.TotalMoves), "moves")
			b.ReportMetric(float64(res.Repartitions), "repartitions")
		})
	}
}

// BenchmarkShardStep measures ShardChain.Step throughput — the per-block
// hot path of the operational layer — serial vs parallel under both
// multi-shard models. Each block carries one token-contract call per user
// (real EVM work per shard), 10% of them cross-shard, so the parallel
// engine's per-shard fan-out scales with GOMAXPROCS on multi-core runners
// while migration-model barriers and receipts settlement keep the
// comparison honest. The engines are byte-identical by contract (pinned by
// shardchain's property tests); this benchmark tracks what that buys.
func BenchmarkShardStep(b *testing.B) {
	const (
		k             = 4
		usersPerShard = 32
	)
	for _, model := range []shardchain.Model{shardchain.ModelReceipts, shardchain.ModelMigration} {
		for _, engine := range []struct {
			name     string
			parallel bool
		}{{"serial", false}, {"parallel", true}} {
			b.Run(fmt.Sprintf("model=%v/engine=%s", model, engine.name), func(b *testing.B) {
				users := make([]types.Address, 0, k*usersPerShard)
				assign := map[types.Address]int{}
				alloc := map[types.Address]evm.Word{}
				for s := 0; s < k; s++ {
					for u := 0; u < usersPerShard; u++ {
						a := types.AddressFromSeq(uint64(1 + s*usersPerShard + u))
						users = append(users, a)
						assign[a] = s
						alloc[a] = evm.WordFromUint64(1 << 40)
					}
				}
				// One token contract per shard, deployed by a dedicated
				// account homed there; the derived contract addresses join
				// the assignment so code and home coincide.
				deployers := make([]types.Address, k)
				tokens := make([]types.Address, k)
				for s := 0; s < k; s++ {
					deployers[s] = types.AddressFromSeq(uint64(10_000 + s))
					assign[deployers[s]] = s
					alloc[deployers[s]] = evm.WordFromUint64(1 << 40)
					tokens[s] = types.ContractAddress(deployers[s], 0)
					assign[tokens[s]] = s
				}
				// Every pinned address is registered up front, so the
				// assignment knows it by ID however the chain meets it.
				reg := trace.NewRegistry()
				for a := range assign {
					reg.ID(a)
				}
				sc, err := shardchain.New(shardchain.Config{
					K: k, Model: model, Parallel: engine.parallel,
				}, reg, alloc, func(id uint64) (int, bool) {
					a, _ := reg.Address(id)
					s, ok := assign[a]
					return s, ok
				})
				if err != nil {
					b.Fatal(err)
				}
				var deploys []*chain.Transaction
				for s := 0; s < k; s++ {
					deploys = append(deploys, &chain.Transaction{
						Nonce: 0, From: deployers[s],
						Data:     evm.DeployWrapper(workload.TokenRuntime()),
						GasLimit: 5_000_000, GasPrice: 0,
					})
				}
				for _, r := range sc.Step(deploys) {
					if !r.Success {
						b.Fatalf("token deploy failed: %v", r.Err)
					}
				}

				nonces := map[types.Address]uint64{}
				word := func(a types.Address) [32]byte { return evm.WordFromBytes(a[:]).Bytes32() }
				block := func(i int) []*chain.Transaction {
					txs := make([]*chain.Transaction, 0, len(users))
					for j, u := range users {
						// Call the token on the user's current shard, or —
						// for every 10th (user, block) pair — on the next
						// shard over: a cross-shard receipt or a sender
						// migration, depending on the model.
						home := sc.HomeOf(sc.ID(u))
						if (i+j)%10 == 0 {
							home = (home + 1) % k
						}
						recipient := word(users[(j+i+1)%len(users)])
						amount := evm.WordFromUint64(1).Bytes32()
						to := tokens[home]
						txs = append(txs, &chain.Transaction{
							Nonce: nonces[u], From: u, To: &to,
							Data:     append(recipient[:], amount[:]...),
							GasLimit: 300_000, GasPrice: 0,
						})
						nonces[u]++
					}
					return txs
				}

				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, r := range sc.Step(block(i)) {
						if r.Err != nil {
							b.Fatalf("tx failed: %v", r.Err)
						}
					}
				}
				b.StopTimer()
				if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
					b.ReportMetric(float64(b.N*len(users))/elapsed, "tx/s")
				}
			})
		}
	}
}

// decayBenchTrace builds a long drifting-eras record stream: each era
// retires the previous era's active set, the regime where full-history
// mode accumulates graph (and repartition cost) linearly with trace length
// while windowed decay keeps both bounded by the active set.
func decayBenchTrace(eras int) []trace.Record {
	base := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	state := uint64(99991)
	next := func(n uint64) uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return (state >> 33) % n
	}
	const windowsPerEra, perWindow = 8, 150
	recs := make([]trace.Record, 0, eras*windowsPerEra*perWindow)
	t := base
	for e := 0; e < eras; e++ {
		lo := uint64(e * 300)
		for w := 0; w < windowsPerEra; w++ {
			for i := 0; i < perWindow; i++ {
				recs = append(recs, trace.Record{
					Time: t, From: lo + next(300), To: lo + next(300),
				})
				t += 4 * 3600 / perWindow
			}
		}
	}
	return recs
}

// BenchmarkDecayRepartition is the windowed-decay headline: METIS with
// two-day repartitioning over drifting-eras traces of growing length,
// full-history versus decay mode. The ms/fire metric is the replay
// wall-clock per repartition firing; over a 3× longer trace it grows with
// trace length in full-history mode (each firing partitions all of
// history) and stays flat in decay mode (each firing partitions only the
// horizon's worth of live graph). live-vertices reports the final live
// graph size — the memory bound made visible.
func BenchmarkDecayRepartition(b *testing.B) {
	for _, mode := range []struct {
		name  string
		decay bool
	}{{"full-history", false}, {"decay", true}} {
		for _, length := range []struct {
			name string
			eras int
		}{{"trace-1x", 12}, {"trace-3x", 36}} {
			b.Run(fmt.Sprintf("mode=%s/%s", mode.name, length.name), func(b *testing.B) {
				recs := decayBenchTrace(length.eras)
				cfg := sim.Config{
					Method: sim.MethodMetis, K: 4,
					Window:           4 * time.Hour,
					RepartitionEvery: 2 * 24 * time.Hour,
				}
				if mode.decay {
					cfg.DecayHalfLife = 24 * time.Hour
					cfg.Horizon = 4 * 24 * time.Hour
				}
				b.ReportAllocs()
				b.ResetTimer()
				var res *sim.Result
				for i := 0; i < b.N; i++ {
					s, err := sim.New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					for _, r := range recs {
						if err := s.Process(r); err != nil {
							b.Fatal(err)
						}
					}
					res = s.Finish()
				}
				b.StopTimer()
				if res.Repartitions > 0 {
					perFire := b.Elapsed().Seconds() * 1e3 / float64(b.N) / float64(res.Repartitions)
					b.ReportMetric(perFire, "ms/fire")
				}
				b.ReportMetric(float64(res.Repartitions), "repartitions")
				b.ReportMetric(float64(res.Vertices), "live-vertices")
			})
		}
	}
}

// BenchmarkAutoscaleResize measures the elastic-shard-count machinery end
// to end: the flash-crowd trace replayed through the live chain and
// directory with the saturation controller armed, so each iteration pays
// for the split's re-partition wave and the merge's drain and lane
// decommission on top of the steady-state replay.
func BenchmarkAutoscaleResize(b *testing.B) {
	gt := experiments.FlashCrowdTrace(experiments.ScaleParams{})
	cfg := opsim.Config{
		Sim: sim.Config{
			Method: sim.MethodTRMetis, K: 2,
			Window:            4 * time.Hour,
			RepartitionEvery:  2 * 24 * time.Hour,
			MinRepartitionGap: 8 * time.Hour,
			TriggerWindows:    2,
			DecayHalfLife:     12 * time.Hour,
			Horizon:           36 * time.Hour,
			Autoscale: sim.AutoscaleConfig{
				Enabled: true, KMin: 2, KMax: 8, TargetWindowLoad: 100,
			},
		},
		Model: shardchain.ModelReceipts,
	}
	b.ReportAllocs()
	b.ResetTimer()
	var res *opsim.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = opsim.Run(gt, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	resizes := len(res.Sim.Resizes)
	if resizes == 0 {
		b.Fatal("autoscaler never fired on the flash-crowd trace")
	}
	b.ReportMetric(float64(resizes), "resizes")
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N)/float64(resizes), "ms/resize")
	var shardWindows int64
	for _, w := range res.Windows {
		shardWindows += int64(w.Shards)
	}
	b.ReportMetric(float64(shardWindows), "shard-windows")
}
