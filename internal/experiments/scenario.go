package experiments

import (
	"fmt"
	"time"

	"ethpart/internal/opsim"
	"ethpart/internal/shardchain"
	"ethpart/internal/sim"
	"ethpart/internal/workload"
)

// This file implements the scenario comparison (the scenariocost figure):
// the full method × multi-shard-model matrix replayed through the live
// sharded chain on each named open-loop scenario. Where the paper's
// figures ask "which method wins on the historical trace", this asks how
// the ranking holds up across workload shapes — steady transfers, diurnal
// exchange traffic, a flash NFT mint — on the operational metrics the
// edge-cut curves proxy: dynamic cut, wave migrations and settlement
// latency.

// ScenarioCostParams configures the scenario × method × model matrix.
type ScenarioCostParams struct {
	// Seed overrides every scenario's seed (default 1).
	Seed int64
	// K is the shard count (default 4).
	K int
	// Hours optionally shortens every scenario's arrival duration.
	Hours float64
}

func (p ScenarioCostParams) withDefaults() ScenarioCostParams {
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.K <= 0 {
		p.K = 4
	}
	return p
}

// scenarioCostConfig is one cell's co-simulation configuration: the
// paper's policy parameters at the scenario's block spacing.
func scenarioCostConfig(method sim.Method, model shardchain.Model, k int) opsim.Config {
	return opsim.Config{
		Sim: sim.Config{
			Method:           method,
			K:                k,
			Window:           4 * time.Hour,
			RepartitionEvery: 2 * 24 * time.Hour,
		},
		Model: model,
	}
}

// ScenarioCost generates each named scenario once and replays it through
// the live sharded chain for every method under both multi-shard models.
// Rows come back labelled with and grouped by scenario, then model, then
// method; all replays of one scenario share its trace.
func ScenarioCost(p ScenarioCostParams) ([]OpsRow, error) {
	p = p.withDefaults()
	var cells []OpsCell
	// A steady, a periodic and a bursty arrival shape.
	for _, name := range []string{"transfer-steady", "diurnal-exchange", "flash-nft-mint"} {
		sc, err := workload.ResolveScenario(name, "", p.Hours, p.Seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: scenariocost: %w", err)
		}
		gt, err := sim.GenerateScenario(sc)
		if err != nil {
			return nil, fmt.Errorf("experiments: scenariocost %s: %w", name, err)
		}
		for _, model := range Models() {
			for _, m := range sim.Methods() {
				cells = append(cells, OpsCell{Label: name, Trace: gt, Config: scenarioCostConfig(m, model, p.K)})
			}
		}
	}
	return RunOps(cells)
}
