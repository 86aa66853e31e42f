package experiments

import (
	"testing"
	"time"

	"ethpart/internal/sim"
	"ethpart/internal/workload"
)

// shardAwareParams compresses history further for test speed.
func shardAwareTestParams() Params {
	d := func(y int, m time.Month, day int) time.Time {
		return time.Date(y, m, day, 0, 0, 0, 0, time.UTC)
	}
	return Params{
		Seed:  7,
		Scale: 0.02,
		Eras: []workload.Era{{
			Name:  "boom",
			Start: d(2017, time.March, 1), End: d(2017, time.April, 15),
			TxPerDayStart: 30_000, TxPerDayEnd: 60_000,
			Kind:           workload.GrowthExponential,
			NewAccountFrac: 0.2, DeploysPerDay: 30,
			Mix: workload.TxMix{Transfer: 0.5, Token: 0.24, Wallet: 0.08, Crowdsale: 0.1, Game: 0.04, Airdrop: 0.04},
		}},
		BlockInterval:    2 * time.Hour,
		RepartitionEvery: 10 * 24 * time.Hour,
	}
}

func TestShardAwareWorkloadCollapsesCut(t *testing.T) {
	rows, err := ShardAware(shardAwareTestParams(), 4, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(sim.Methods()) {
		t.Fatalf("rows = %d", len(rows))
	}
	var hash, metis ShardAwareRow
	for _, r := range rows {
		t.Logf("%-8v baseline cut=%.3f aware cut=%.3f", r.Method, r.BaselineCut, r.AwareCut)
		switch r.Method {
		case sim.MethodHash:
			hash = r
		case sim.MethodMetis:
			metis = r
		}
	}
	// Hashing cannot exploit community structure: its cut stays near
	// (k-1)/k either way.
	if hash.AwareCut < 0.6 {
		t.Errorf("hash aware cut = %.3f, should stay near 0.75", hash.AwareCut)
	}
	// METIS must exploit it: cut on the shard-aware workload far below its
	// baseline cut.
	if metis.AwareCut > 0.7*metis.BaselineCut {
		t.Errorf("METIS aware cut = %.3f vs baseline %.3f: expected a collapse",
			metis.AwareCut, metis.BaselineCut)
	}
}

func TestDefaultShardAwareParams(t *testing.T) {
	p := DefaultShardAwareParams(3, 0.01)
	if p.Seed != 3 || p.Scale != 0.01 || len(p.Eras) != 1 {
		t.Errorf("params = %+v", p)
	}
}
