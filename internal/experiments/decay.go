package experiments

import (
	"time"

	"ethpart/internal/evm"
	"ethpart/internal/graph"
	"ethpart/internal/opsim"
	"ethpart/internal/shardchain"
	"ethpart/internal/sim"
	"ethpart/internal/trace"
	"ethpart/internal/types"
)

// This file implements the operational decay comparison — the roadmap's
// missing figure: what windowed decay buys a *live* sharded chain in
// migration cost (account moves, relocated storage slots, cross-shard
// messages) on a drifting-era history, where full-history repartitioners
// keep re-deciding the fate of accounts that will never be touched again.

// DecayParams configures the operational decay comparison.
type DecayParams struct {
	// Seed drives the drifting-era trace generator.
	Seed int64
	// K is the shard count (default 4).
	K int
	// HalfLife/Horizon are the decay runs' parameters (defaults: 12h/36h).
	HalfLife, Horizon time.Duration
	// Eras and WindowsPerEra size the drifting history (defaults: 10 eras
	// of 8 four-hour windows; each era retires the previous era's active
	// set, the regime decay is built for).
	Eras, WindowsPerEra int
}

func (p DecayParams) withDefaults() DecayParams {
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.K <= 0 {
		p.K = 4
	}
	if p.HalfLife <= 0 {
		p.HalfLife = 12 * time.Hour
	}
	if p.Horizon <= 0 {
		p.Horizon = 3 * p.HalfLife
	}
	if p.Eras <= 0 {
		p.Eras = 10
	}
	if p.WindowsPerEra <= 0 {
		p.WindowsPerEra = 8
	}
	return p
}

// decayTraceVertices is each era's active-set size; every tenth vertex is
// a contract carrying decayTraceSlots storage slots so migration cost is
// visible in relocated state, not just move counts.
const (
	decayTraceVertices = 120
	decayTraceSlots    = 4
)

// DecayTrace builds the drifting-era history of the comparison: Eras eras
// whose active sets are disjoint, WindowsPerEra four-hour windows each,
// two blocks per window, deterministic in Seed. It is exported so
// ethpart chaos can replay the same regime.
func DecayTrace(p DecayParams) *sim.GeneratedTrace {
	p = p.withDefaults()
	reg := trace.NewRegistry()
	slots := make(map[graph.VertexID]int)
	total := uint64(p.Eras * decayTraceVertices)
	for i := uint64(0); i < total; i++ {
		id := reg.ID(types.AddressFromSeq(i + 1))
		if id%10 == 0 {
			reg.MarkContract(id)
			slots[graph.VertexID(id)] = decayTraceSlots
		}
	}

	state := uint64(p.Seed)*2862933555777941757 + 3037000493
	next := func(n uint64) uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return (state >> 33) % n
	}
	const (
		blocksPerWindow = 2
		recsPerBlock    = 60
	)
	base := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	var recs []trace.Record
	block := uint64(0)
	for e := 0; e < p.Eras; e++ {
		lo := uint64(e * decayTraceVertices)
		for w := 0; w < p.WindowsPerEra; w++ {
			for b := 0; b < blocksPerWindow; b++ {
				block++
				t := base + int64(block-1)*int64(4*3600/blocksPerWindow)
				for i := 0; i < recsPerBlock; i++ {
					from := lo + next(decayTraceVertices)
					to := lo + next(decayTraceVertices)
					recs = append(recs, trace.Record{
						Block: block, Time: t, Kind: evm.KindTransaction,
						From: from, To: to,
						FromContract: reg.IsContract(from),
						ToContract:   reg.IsContract(to),
						Value:        1 + next(1000),
					})
				}
			}
		}
	}
	return sim.NewGeneratedTrace(recs, reg, slots)
}

// DriftingEraPolicy is the simulator policy both drifting-era harnesses
// (decaycost and ethpart chaos) replay under: 4-hour windows, a 2-day
// period with a 24-hour floor between firings, and threshold triggers that
// fire after two windows over cut 0.2 or balance 1.5.
func DriftingEraPolicy(method sim.Method, k int) sim.Config {
	return sim.Config{
		Method: method, K: k,
		Window:            4 * time.Hour,
		RepartitionEvery:  2 * 24 * time.Hour,
		MinRepartitionGap: 24 * time.Hour,
		TriggerWindows:    2,
		CutThreshold:      0.2,
		BalanceThreshold:  1.5,
	}
}

// DecayOperational runs the comparison: the three repartitioning methods
// (METIS, R-METIS, TR-METIS) through the live chain under ModelMigration,
// each with and without windowed decay (label "full-history" / "decay"),
// on the same drifting-era history.
func DecayOperational(p DecayParams) ([]OpsRow, error) {
	p = p.withDefaults()
	gt := DecayTrace(p)
	var cells []OpsCell
	for _, m := range []sim.Method{sim.MethodMetis, sim.MethodRMetis, sim.MethodTRMetis} {
		full := OpsCell{
			Label: "full-history", Trace: gt,
			Config: opsim.Config{Sim: DriftingEraPolicy(m, p.K), Model: shardchain.ModelMigration},
		}
		decay := full
		decay.Label = "decay"
		decay.Config.Sim.DecayHalfLife = p.HalfLife
		decay.Config.Sim.Horizon = p.Horizon
		cells = append(cells, full, decay)
	}
	return RunOps(cells)
}
