package experiments

import (
	"fmt"
	"time"

	"ethpart/internal/sim"
	"ethpart/internal/workload"
)

// ShardAware implements the extension experiment behind the paper's
// "applications will be designed in a different way" caveat: it re-runs the
// headline comparison on a workload whose applications were designed for a
// sharded world (community-local interactions). The other extension, what a
// partition costs to operate, is an operational figure (Prices in
// operational.go).

// ShardAwareRow compares one method's dynamic cut on today's workload
// against the shard-aware (community-local) workload.
type ShardAwareRow struct {
	Method      sim.Method
	BaselineCut float64
	AwareCut    float64
	BaselineBal float64
	AwareBal    float64
}

// ShardAware generates a second history identical in shape but with
// application communities (one per shard, high locality) and reruns the
// methods at k shards on both. The expected outcome — and what the tests
// assert — is that every placement-aware method's cut collapses while
// hashing barely improves: shard-awareness only helps when the partitioner
// can follow the community structure.
func ShardAware(p Params, k int, locality float64) ([]ShardAwareRow, error) {
	p = p.withDefaults()
	base, err := NewDataset(p)
	if err != nil {
		return nil, fmt.Errorf("experiments: baseline dataset: %w", err)
	}
	awareGT, err := sim.Generate(workload.Config{
		Seed:              p.Seed,
		Scale:             p.Scale,
		Eras:              p.Eras,
		BlockInterval:     p.BlockInterval,
		Communities:       k,
		CommunityLocality: locality,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: shard-aware dataset: %w", err)
	}
	// Both halves replay under the same configuration (decay included).
	aware := &Dataset{Params: p, GT: awareGT, cache: make(map[simKey]*sim.Result)}

	var rows []ShardAwareRow
	for _, m := range sim.Methods() {
		baseRes, err := base.Run(m, k)
		if err != nil {
			return nil, err
		}
		awareRes, err := aware.Run(m, k)
		if err != nil {
			return nil, fmt.Errorf("experiments: shard-aware: %w", err)
		}
		rows = append(rows, ShardAwareRow{
			Method:      m,
			BaselineCut: baseRes.OverallDynamicCut,
			AwareCut:    awareRes.OverallDynamicCut,
			BaselineBal: baseRes.OverallDynamicBalance,
			AwareBal:    awareRes.OverallDynamicBalance,
		})
	}
	return rows, nil
}

// DefaultShardAwareParams compresses the history for the extension
// experiment (it needs two full generations).
func DefaultShardAwareParams(seed int64, scale float64) Params {
	d := func(y int, m time.Month, day int) time.Time {
		return time.Date(y, m, day, 0, 0, 0, 0, time.UTC)
	}
	return Params{
		Seed:  seed,
		Scale: scale,
		Eras: []workload.Era{{
			Name:  "boom",
			Start: d(2017, time.March, 1), End: d(2017, time.September, 1),
			TxPerDayStart: 45_000, TxPerDayEnd: 200_000,
			Kind:           workload.GrowthExponential,
			NewAccountFrac: 0.22, DeploysPerDay: 40,
			Mix: workload.TxMix{Transfer: 0.48, Token: 0.26, Wallet: 0.08, Crowdsale: 0.1, Game: 0.04, Airdrop: 0.04},
		}},
		BlockInterval: 2 * time.Hour,
	}
}
