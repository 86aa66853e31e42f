package trace_test

import (
	"testing"
	"time"

	"ethpart/internal/evm"
	"ethpart/internal/trace"
	"ethpart/internal/types"
	"ethpart/internal/workload"
)

// External test package: workload imports trace (the Stream seam), so
// tests that drive the generator live outside package trace.

func TestAppendReceiptsEndToEnd(t *testing.T) {
	// Generate a couple of blocks and verify the records line up with the
	// receipts' traces, with contracts flagged.
	gen, err := workload.New(workload.Config{
		Seed: 11, Scale: 0.05,
		Eras: []workload.Era{{
			Name:          "mini",
			Start:         time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC),
			End:           time.Date(2016, 1, 3, 0, 0, 0, 0, time.UTC),
			TxPerDayStart: 5_000, TxPerDayEnd: 5_000, Kind: workload.GrowthLinear,
			NewAccountFrac: 0.2, DeploysPerDay: 5,
			Mix: workload.TxMix{Transfer: 0.5, Token: 0.2, Wallet: 0.1, Crowdsale: 0.1, Game: 0.05, Airdrop: 0.05},
		}},
		BlockInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := trace.NewRegistry()
	st := gen.State()
	isContract := func(a types.Address) bool { return len(st.GetCode(a)) > 0 }

	var all []trace.Record
	var traceCount int
	for {
		block, ok, err := gen.NextBlock()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if block == nil {
			continue
		}
		for _, r := range block.Receipts {
			traceCount += len(r.Traces)
		}
		recs := trace.AppendReceipts(nil, uint32(block.Number), block.Time, nil, block.Receipts, reg, isContract)
		all = append(all, recs...)
	}
	if len(all) == 0 {
		t.Fatal("no records produced")
	}
	if len(all) != traceCount {
		t.Errorf("records = %d, traces = %d", len(all), traceCount)
	}
	// Token contract interactions must be flagged as contract targets.
	sawContractTarget := false
	sawInternalCall := false
	for _, rec := range all {
		if rec.ToContract && rec.Kind == evm.KindTransaction {
			sawContractTarget = true
		}
		if rec.Kind == evm.KindCall {
			sawInternalCall = true
		}
	}
	if !sawContractTarget {
		t.Error("no transaction targeted a contract")
	}
	if !sawInternalCall {
		t.Error("no internal calls recorded")
	}
	// IDs must be dense.
	for _, rec := range all {
		if rec.From >= uint64(reg.Len()) || rec.To >= uint64(reg.Len()) {
			t.Fatalf("record references unknown vertex: %+v", rec)
		}
	}
}
