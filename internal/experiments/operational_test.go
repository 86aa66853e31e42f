package experiments

import (
	"testing"
	"time"

	"ethpart/internal/opsim"
	"ethpart/internal/shardchain"
	"ethpart/internal/sim"
	"ethpart/internal/workload"
)

func TestOperationalCoversMatrix(t *testing.T) {
	ds := testDataset(t)
	rows, err := ds.Operational(2)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(sim.Methods()) * len(Models()); len(rows) != want {
		t.Fatalf("rows = %d, want %d (methods × models)", len(rows), want)
	}
	type cellKey struct {
		method sim.Method
		model  shardchain.Model
	}
	byKey := map[cellKey]*opsim.Result{}
	for _, row := range rows {
		if row.Result == nil || len(row.Result.Windows) == 0 {
			t.Fatalf("%v/%v: empty result", row.Config.Sim.Method, row.Config.Model)
		}
		res := row.Result
		key := cellKey{res.Method, res.Model}
		if key != (cellKey{row.Config.Sim.Method, row.Config.Model}) || res.K != 2 {
			t.Errorf("cell %v/%v ran as %v/%v k=%d", row.Config.Sim.Method, row.Config.Model,
				res.Method, res.Model, res.K)
		}
		if byKey[key] != nil {
			t.Errorf("duplicate row %v/%v", res.Method, res.Model)
		}
		byKey[key] = res
		if res.Totals.Failed != 0 {
			t.Errorf("%v/%v: %d failed txs", res.Method, res.Model, res.Totals.Failed)
		}
	}

	// The operational ordering mirrors the cut ordering: under receipts,
	// METIS must beat hashing on messages, the paper's claim end to end.
	hash := byKey[cellKey{sim.MethodHash, shardchain.ModelReceipts}]
	metis := byKey[cellKey{sim.MethodMetis, shardchain.ModelReceipts}]
	if metis.Totals.Messages >= hash.Totals.Messages {
		t.Errorf("metis messages %d not below hash %d", metis.Totals.Messages, hash.Totals.Messages)
	}

	if _, err := ds.Operational(0); err == nil {
		t.Error("k=0 must error")
	}
}

// TestOperationalCosts pins the two places where the simulator and the live
// chain must agree, and the rankings the costs figure prices from the
// chain. HASH never repartitions, so under receipts its executed cross-shard
// transactions are the simulator's cut times the interactions. Under
// migration every wave move is a MigrateAccount of the vertex's slots, and
// the inline sender moves carry none (senders are externally owned), so the
// chain's relocated slots, the waves' and the simulator's moved slots are
// one number. Repartitioning methods under receipts are not pinned to the
// simulator: Rehome cannot move state that already exists, so the chain
// runs more cross-shard transactions than the cut predicts (DESIGN §10).
func TestOperationalCosts(t *testing.T) {
	ds := testDataset(t)
	rows, err := ds.Operational(2)
	if err != nil {
		t.Fatal(err)
	}
	type cellKey struct {
		method sim.Method
		model  shardchain.Model
	}
	bills := map[cellKey]Bill{}
	for _, row := range rows {
		res := row.Result
		key := cellKey{res.Method, res.Model}
		bills[key] = DatacenterPrices.Bill(row)
		if res.Model == shardchain.ModelMigration &&
			(res.Totals.MigratedSlots != res.WaveMigratedSlots || res.WaveMigratedSlots != res.Sim.TotalMovedSlots) {
			t.Errorf("%v/migration: chain slots %d, wave slots %d, simulator moved slots %d: want one number",
				res.Method, res.Totals.MigratedSlots, res.WaveMigratedSlots, res.Sim.TotalMovedSlots)
		}
		if res.Method == sim.MethodHash && res.Model == shardchain.ModelReceipts {
			want := float64(res.Replayed) * res.Sim.OverallDynamicCut
			if got := float64(res.Totals.CrossTxs); got < want*0.999 || got > want*1.001 {
				t.Errorf("HASH/receipts: %v cross-shard transactions, simulator predicts %.0f (±0.1%%)", got, want)
			}
		}
	}

	for _, model := range Models() {
		hash := bills[cellKey{sim.MethodHash, model}]
		if hash.Relocation != 0 {
			t.Errorf("HASH/%v pays relocation %v", model, hash.Relocation)
		}
	}
	// Hashing's cut is the worst, so it pays the most coordination.
	hash := bills[cellKey{sim.MethodHash, shardchain.ModelReceipts}]
	for _, m := range sim.Methods()[1:] {
		if b := bills[cellKey{m, shardchain.ModelReceipts}]; b.Coordination >= hash.Coordination {
			t.Errorf("%v/receipts coordination %v not below HASH's %v", m, b.Coordination, hash.Coordination)
		}
	}
	// METIS re-partitions from scratch, so its waves relocate more than KL's.
	metis := bills[cellKey{sim.MethodMetis, shardchain.ModelMigration}]
	kl := bills[cellKey{sim.MethodKL, shardchain.ModelMigration}]
	if metis.Relocation <= kl.Relocation {
		t.Errorf("METIS/migration relocation %v not above KL's %v", metis.Relocation, kl.Relocation)
	}
}

// tinyDataset is a one-week history small enough to replay through the
// live chain many times in one test.
func tinyDataset(t *testing.T) *Dataset {
	t.Helper()
	ds, err := NewDataset(Params{
		Seed:  7,
		Scale: 0.01,
		Eras: []workload.Era{{
			Name:          "mini",
			Start:         time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC),
			End:           time.Date(2017, 1, 8, 0, 0, 0, 0, time.UTC),
			TxPerDayStart: 10_000, TxPerDayEnd: 10_000, Kind: workload.GrowthLinear,
			NewAccountFrac: 0.2, DeploysPerDay: 5,
			Mix: workload.TxMix{Transfer: 0.6, Token: 0.2, Wallet: 0.1, Crowdsale: 0.05, Game: 0.03, Airdrop: 0.02},
		}},
		BlockInterval:    time.Hour,
		RepartitionEvery: 48 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestDecayParamsReachSimAndBridge pins the decay pass-through: Params'
// DecayHalfLife/Horizon must thread into every cached simulation and into
// the operational cells. With an aggressive horizon on the one-week
// history, the decayed replay must end with a strictly smaller live graph
// than full-history mode while replaying the identical record stream, and
// the bridge must complete on top of it (retired accounts keep their
// sticky homes, so the live chain never sees an unhomed account).
func TestDecayParamsReachSimAndBridge(t *testing.T) {
	full := tinyDataset(t)
	decayed := tinyDecayedDataset(t)
	if len(full.GT.Records) != len(decayed.GT.Records) {
		t.Fatalf("histories diverge: %d vs %d records", len(full.GT.Records), len(decayed.GT.Records))
	}
	fr, err := full.Run(sim.MethodMetis, 2)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := decayed.Run(sim.MethodMetis, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Vertices >= fr.Vertices {
		t.Errorf("decayed live graph (%d vertices) not below full history (%d)", dr.Vertices, fr.Vertices)
	}
	if len(dr.Windows) != len(fr.Windows) {
		t.Errorf("window counts diverge: %d vs %d", len(dr.Windows), len(fr.Windows))
	}
	rows, err := RunOps([]OpsCell{decayed.opsCell(sim.MethodMetis, shardchain.ModelMigration, 2)})
	if err != nil {
		t.Fatal(err)
	}
	res := rows[0].Result
	if res.Totals.Failed != 0 {
		t.Errorf("decayed operational run failed %d transactions", res.Totals.Failed)
	}
	if res.Replayed != int64(len(decayed.GT.Records)) {
		t.Errorf("replayed %d of %d records", res.Replayed, len(decayed.GT.Records))
	}
}

// tinyDecayedDataset is tinyDataset with windowed decay enabled (12h
// half-life, 36h horizon — aggressive enough to retire idle accounts
// within the one-week history).
func tinyDecayedDataset(t *testing.T) *Dataset {
	t.Helper()
	ds, err := NewDataset(Params{
		Seed:  7,
		Scale: 0.01,
		Eras: []workload.Era{{
			Name:          "mini",
			Start:         time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC),
			End:           time.Date(2017, 1, 8, 0, 0, 0, 0, time.UTC),
			TxPerDayStart: 10_000, TxPerDayEnd: 10_000, Kind: workload.GrowthLinear,
			NewAccountFrac: 0.2, DeploysPerDay: 5,
			Mix: workload.TxMix{Transfer: 0.6, Token: 0.2, Wallet: 0.1, Crowdsale: 0.05, Game: 0.03, Airdrop: 0.02},
		}},
		BlockInterval:    time.Hour,
		RepartitionEvery: 48 * time.Hour,
		DecayHalfLife:    12 * time.Hour,
		Horizon:          36 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}
