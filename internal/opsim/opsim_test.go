package opsim

import (
	"strings"
	"testing"
	"time"

	"ethpart/internal/evm"
	"ethpart/internal/graph"
	"ethpart/internal/shardchain"
	"ethpart/internal/sim"
	"ethpart/internal/trace"
	"ethpart/internal/types"
	"ethpart/internal/workload"
)

// smallTrace generates a one-week history small enough for unit tests.
func smallTrace(t *testing.T) *sim.GeneratedTrace {
	t.Helper()
	eras := []workload.Era{{
		Name:          "mini",
		Start:         time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC),
		End:           time.Date(2017, 1, 8, 0, 0, 0, 0, time.UTC),
		TxPerDayStart: 10_000, TxPerDayEnd: 10_000, Kind: workload.GrowthLinear,
		NewAccountFrac: 0.2, DeploysPerDay: 5,
		Mix: workload.TxMix{Transfer: 0.6, Token: 0.2, Wallet: 0.1, Crowdsale: 0.05, Game: 0.03, Airdrop: 0.02},
	}}
	gt, err := sim.Generate(workload.Config{Seed: 5, Scale: 0.05, Eras: eras, BlockInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if len(gt.Records) == 0 {
		t.Fatal("empty trace")
	}
	return gt
}

func cfgFor(method sim.Method, model shardchain.Model, k int) Config {
	return Config{
		Sim: sim.Config{
			Method: method, K: k,
			Window:           4 * time.Hour,
			RepartitionEvery: 48 * time.Hour,
		},
		Model: model,
	}
}

func TestRunEveryMethodUnderBothModels(t *testing.T) {
	gt := smallTrace(t)
	registered := gt.Registry.Len()
	for _, model := range []shardchain.Model{shardchain.ModelReceipts, shardchain.ModelMigration} {
		for _, m := range sim.Methods() {
			res, err := Run(gt, cfgFor(m, model, 4))
			if err != nil {
				t.Fatalf("%v/%v: %v", m, model, err)
			}
			// The chain keys on the trace's registry and must only read it:
			// runs over one trace share it across goroutines.
			if n := gt.Registry.Len(); n != registered {
				t.Fatalf("%v/%v: the run registered %d addresses in the trace's registry", m, model, n-registered)
			}
			if res.Replayed != int64(len(gt.Records)) {
				t.Errorf("%v/%v: replayed %d of %d records", m, model, res.Replayed, len(gt.Records))
			}
			total := res.Totals.LocalTxs + res.Totals.CrossTxs + res.Totals.Failed
			if total != res.Replayed {
				t.Errorf("%v/%v: executed %d txs for %d records", m, model, total, res.Replayed)
			}
			if res.Totals.Failed != 0 {
				t.Errorf("%v/%v: %d failed txs; funded replay must validate cleanly",
					m, model, res.Totals.Failed)
			}
			if len(res.Windows) == 0 || res.Sim == nil {
				t.Fatalf("%v/%v: missing windows or sim result", m, model)
			}
			// The per-window deltas must sum to the run totals.
			var sum shardchain.Stats
			var inter int64
			for _, w := range res.Windows {
				sum.Messages += w.Messages
				sum.ReceiptsSettled += w.ReceiptsSettled
				sum.SettlementBlocks += w.SettlementBlocks
				sum.Migrations += w.Migrations
				sum.MigratedSlots += w.MigratedSlots
				sum.Failed += w.Failed
				inter += w.Interactions
			}
			if sum.Messages != res.Totals.Messages ||
				sum.ReceiptsSettled != res.Totals.ReceiptsSettled ||
				sum.SettlementBlocks != res.Totals.SettlementBlocks ||
				sum.Migrations != res.Totals.Migrations ||
				sum.MigratedSlots != res.Totals.MigratedSlots {
				t.Errorf("%v/%v: window deltas do not sum to totals: %+v vs %+v",
					m, model, sum, res.Totals)
			}
			if inter != res.Replayed {
				t.Errorf("%v/%v: window interactions %d != replayed %d", m, model, inter, res.Replayed)
			}
			// Model invariants.
			switch model {
			case shardchain.ModelReceipts:
				if res.Totals.Migrations != 0 {
					t.Errorf("%v/receipts: %d migrations; receipts must never move state",
						m, res.Totals.Migrations)
				}
				if res.Totals.CrossTxs > 0 && res.Totals.ReceiptsSettled == 0 {
					t.Errorf("%v/receipts: cross txs but nothing settled", m)
				}
			case shardchain.ModelMigration:
				if res.Totals.CrossTxs != 0 {
					t.Errorf("%v/migration: %d cross txs; migration makes every tx local",
						m, res.Totals.CrossTxs)
				}
				if res.Totals.Messages > 0 && res.Totals.Migrations == 0 {
					t.Errorf("%v/migration: messages without migrations", m)
				}
			}
		}
	}
}

func TestCutProxyHoldsOperationally(t *testing.T) {
	// The paper's central claim, end to end: a method with a lower dynamic
	// edge-cut must produce fewer cross-shard messages on the live chain
	// than stateless hashing, under the receipts model.
	gt := smallTrace(t)
	hash, err := Run(gt, cfgFor(sim.MethodHash, shardchain.ModelReceipts, 4))
	if err != nil {
		t.Fatal(err)
	}
	metis, err := Run(gt, cfgFor(sim.MethodMetis, shardchain.ModelReceipts, 4))
	if err != nil {
		t.Fatal(err)
	}
	if metis.Sim.OverallDynamicCut >= hash.Sim.OverallDynamicCut {
		t.Skipf("metis cut %.3f not below hash %.3f on this trace; proxy test void",
			metis.Sim.OverallDynamicCut, hash.Sim.OverallDynamicCut)
	}
	if metis.Totals.Messages >= hash.Totals.Messages {
		t.Errorf("metis messages %d not below hash %d despite lower cut (%.3f vs %.3f)",
			metis.Totals.Messages, hash.Totals.Messages,
			metis.Sim.OverallDynamicCut, hash.Sim.OverallDynamicCut)
	}
	if metis.Totals.CrossFraction() >= hash.Totals.CrossFraction() {
		t.Errorf("metis cross fraction %.3f not below hash %.3f",
			metis.Totals.CrossFraction(), hash.Totals.CrossFraction())
	}
}

func TestRepartitionDrivesMigrationBatches(t *testing.T) {
	// Under ModelMigration, a repartitioning method must turn its
	// assignment changes into real state movement on the chain.
	gt := smallTrace(t)
	res, err := Run(gt, cfgFor(sim.MethodMetis, shardchain.ModelMigration, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Sim.Repartitions == 0 {
		t.Fatal("config must trigger at least one repartition")
	}
	if res.Totals.Migrations == 0 {
		t.Error("repartitions produced no chain migrations")
	}
	// Repartition windows must show migration activity beyond the steady
	// state: the windows flagged by the simulator carry moved slots.
	var repartSlots int64
	for i, w := range res.Sim.Windows {
		if w.Repartitioned && i < len(res.Windows) {
			repartSlots += res.Windows[i].MigratedSlots
		}
	}
	if repartSlots == 0 && res.Totals.MigratedSlots > 0 {
		t.Error("no migrated slots in any repartition window")
	}
}

func TestParallelEngineMatchesSerialOverWorkload(t *testing.T) {
	// The full bridge over a generated workload slice: the parallel
	// per-shard engine must reproduce the serial engine's windows and
	// totals bit for bit, under both models (run with -race in CI, this is
	// also the bridge-level data-race check for the fan-out).
	gt := smallTrace(t)
	for _, model := range []shardchain.Model{shardchain.ModelReceipts, shardchain.ModelMigration} {
		for _, m := range []sim.Method{sim.MethodHash, sim.MethodRMetis} {
			serialCfg := cfgFor(m, model, 4)
			parallelCfg := serialCfg
			parallelCfg.Parallel = true
			a, err := Run(gt, serialCfg)
			if err != nil {
				t.Fatalf("%v/%v serial: %v", m, model, err)
			}
			b, err := Run(gt, parallelCfg)
			if err != nil {
				t.Fatalf("%v/%v parallel: %v", m, model, err)
			}
			if a.Totals != b.Totals {
				t.Errorf("%v/%v: totals diverge:\nserial:   %+v\nparallel: %+v", m, model, a.Totals, b.Totals)
			}
			if a.Replayed != b.Replayed || a.Blocks != b.Blocks {
				t.Errorf("%v/%v: replayed/blocks diverge: %d/%d vs %d/%d",
					m, model, a.Replayed, a.Blocks, b.Replayed, b.Blocks)
			}
			if len(a.Windows) != len(b.Windows) {
				t.Fatalf("%v/%v: window counts differ: %d vs %d", m, model, len(a.Windows), len(b.Windows))
			}
			for i := range a.Windows {
				if a.Windows[i] != b.Windows[i] {
					t.Errorf("%v/%v: window %d diverges:\nserial:   %+v\nparallel: %+v",
						m, model, i, a.Windows[i], b.Windows[i])
				}
			}
		}
	}
}

func TestWindowMeanSettlementEmptyDenominator(t *testing.T) {
	// Regression: a window in which nothing settled must report 0, never
	// NaN — the ops CSV used to print the raw quotient.
	if got := (WindowStat{}).MeanSettlement(); got != 0 {
		t.Errorf("empty window MeanSettlement = %v, want 0", got)
	}
	if got := (&Result{}).Totals.MeanSettlement(); got != 0 {
		t.Errorf("empty result MeanSettlement = %v, want 0", got)
	}
	w := WindowStat{Stats: shardchain.Stats{ReceiptsSettled: 4, SettlementBlocks: 6}}
	if got := w.MeanSettlement(); got != 1.5 {
		t.Errorf("MeanSettlement = %v, want 1.5", got)
	}
}

func TestDeterministicReplay(t *testing.T) {
	gt := smallTrace(t)
	a, err := Run(gt, cfgFor(sim.MethodRMetis, shardchain.ModelMigration, 4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(gt, cfgFor(sim.MethodRMetis, shardchain.ModelMigration, 4))
	if err != nil {
		t.Fatal(err)
	}
	if a.Totals != b.Totals {
		t.Errorf("same trace and config must reproduce identical totals:\n%+v\n%+v", a.Totals, b.Totals)
	}
	if len(a.Windows) != len(b.Windows) {
		t.Fatalf("window counts differ: %d vs %d", len(a.Windows), len(b.Windows))
	}
	for i := range a.Windows {
		if a.Windows[i] != b.Windows[i] {
			t.Errorf("window %d differs: %+v vs %+v", i, a.Windows[i], b.Windows[i])
		}
	}
}

func TestFailedTxDoesNotCascadeNonceMismatches(t *testing.T) {
	// A transfer above the sender's funding is rejected without a nonce
	// bump on the chain; the runner must resync its tracked nonce so the
	// sender's later transactions still validate.
	reg := trace.NewRegistry()
	a := reg.ID(types.AddressFromSeq(1))
	b := reg.ID(types.AddressFromSeq(2))
	base := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	gt := &sim.GeneratedTrace{
		Registry: reg,
		Records: []trace.Record{
			{Block: 1, Time: base, Kind: evm.KindTransaction, From: a, To: b, Value: 150},
			{Block: 2, Time: base + 3600, Kind: evm.KindTransaction, From: a, To: b, Value: 50},
		},
	}
	cfg := cfgFor(sim.MethodHash, shardchain.ModelReceipts, 2)
	cfg.fund = evm.WordFromUint64(100)
	res, err := Run(gt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Totals.Failed != 1 {
		t.Errorf("failed = %d, want exactly the overdraft", res.Totals.Failed)
	}
	if got := res.Totals.LocalTxs + res.Totals.CrossTxs; got != 1 {
		t.Errorf("executed = %d, want 1 (the post-failure transfer must validate)", got)
	}
}

func TestRunValidation(t *testing.T) {
	gt := smallTrace(t)
	if _, err := Run(gt, Config{Sim: sim.Config{Method: sim.Method(99)}, Model: shardchain.ModelReceipts}); err == nil {
		t.Error("bad method must error")
	}
	if _, err := Run(gt, Config{Sim: sim.Config{Method: sim.MethodHash}, Model: shardchain.Model(9)}); err == nil {
		t.Error("bad model must error")
	}
}

// TestRunRejectsCallerSetSimHooks: Run installs every simulator hook itself,
// so a caller-set one is an error naming the field, never silently dropped.
func TestRunRejectsCallerSetSimHooks(t *testing.T) {
	gt := smallTrace(t)
	for _, tc := range []struct {
		field string
		set   func(*sim.Config)
	}{
		{"OnPlace", func(c *sim.Config) { c.OnPlace = func(graph.VertexID, int) {} }},
		{"OnMove", func(c *sim.Config) { c.OnMove = func(graph.VertexID, int, int) {} }},
		{"OnRepartition", func(c *sim.Config) { c.OnRepartition = func(time.Time, int) {} }},
		{"OnRetire", func(c *sim.Config) { c.OnRetire = func(graph.VertexID, int) {} }},
		{"OnResize", func(c *sim.Config) { c.OnResize = func(time.Time, int, int, int) {} }},
	} {
		cfg := cfgFor(sim.MethodHash, shardchain.ModelReceipts, 2)
		tc.set(&cfg.Sim)
		_, err := Run(gt, cfg)
		if err == nil || !strings.Contains(err.Error(), "Config.Sim."+tc.field+" ") {
			t.Errorf("%s set: err = %v, want an error naming Config.Sim.%s", tc.field, err, tc.field)
		}
	}
}
