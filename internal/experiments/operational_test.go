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
