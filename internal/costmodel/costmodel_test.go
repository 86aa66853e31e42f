package costmodel

import (
	"testing"
	"time"

	"ethpart/internal/sim"
)

// fakeResult builds a Result with the given aggregates.
func fakeResult(k int, interactions int64, cut, balance float64, moves, slots int64) *sim.Result {
	return &sim.Result{
		K: k,
		Windows: []sim.WindowStat{
			{Start: time.Unix(0, 0), Interactions: interactions},
		},
		OverallDynamicCut:     cut,
		OverallDynamicBalance: balance,
		TotalMoves:            moves,
		TotalMovedSlots:       slots,
	}
}

func TestModelString(t *testing.T) {
	if Coordinated.String() != "coordinated" || StateMovement.String() != "state-movement" {
		t.Error("model names wrong")
	}
	if Model(9).String() != "Model(9)" {
		t.Error("unknown model rendering wrong")
	}
}

func TestCostZeroCutHasNoCoordination(t *testing.T) {
	res := fakeResult(2, 1000, 0, 1.0, 0, 0)
	b := Cost(res, Coordinated, DefaultParams())
	if b.Coordination != 0 {
		t.Errorf("coordination = %v for zero cut", b.Coordination)
	}
	if b.Execution != 1000 {
		t.Errorf("execution = %v, want 1000", b.Execution)
	}
	if b.Relocation != 0 || b.Imbalance != 0 {
		t.Errorf("unexpected costs: %+v", b)
	}
	if b.Total() != 1000 {
		t.Errorf("total = %v", b.Total())
	}
}

func TestCostCoordinatedScalesWithCut(t *testing.T) {
	p := DefaultParams()
	low := Cost(fakeResult(2, 1000, 0.1, 1, 0, 0), Coordinated, p)
	high := Cost(fakeResult(2, 1000, 0.5, 1, 0, 0), Coordinated, p)
	if high.Coordination != 5*low.Coordination {
		t.Errorf("coordination %v vs %v, want 5x", high.Coordination, low.Coordination)
	}
	// 1000 * 0.5 cross-shard txs * 2 rounds * 10 = 10000.
	if high.Coordination != 10_000 {
		t.Errorf("coordination = %v, want 10000", high.Coordination)
	}
}

func TestCostRelocation(t *testing.T) {
	p := DefaultParams()
	b := Cost(fakeResult(2, 100, 0, 1, 10, 50), Coordinated, p)
	want := 10*p.VertexMoveCost + 50*p.SlotMoveCost
	if b.Relocation != want {
		t.Errorf("relocation = %v, want %v", b.Relocation, want)
	}
}

func TestCostImbalanceStrandsCapacity(t *testing.T) {
	p := DefaultParams()
	balanced := Cost(fakeResult(2, 1000, 0, 1.0, 0, 0), Coordinated, p)
	skewed := Cost(fakeResult(2, 1000, 0, 2.0, 0, 0), Coordinated, p)
	if balanced.Imbalance != 0 {
		t.Errorf("balanced run has imbalance cost %v", balanced.Imbalance)
	}
	if skewed.Imbalance <= 0 {
		t.Errorf("skewed run has no imbalance cost")
	}
}

func TestStateMovementPricesPulls(t *testing.T) {
	p := DefaultParams()
	res := fakeResult(2, 1000, 0.2, 1, 0, 0)
	b := Cost(res, StateMovement, p)
	// 200 cross-shard txs * (10 + 25) = 7000.
	if b.Coordination != 7000 {
		t.Errorf("coordination = %v, want 7000", b.Coordination)
	}
	// The two models must price the same run differently.
	if c := Cost(res, Coordinated, p); c.Coordination == b.Coordination {
		t.Error("models must not coincide under default params")
	}
}

func TestModelsTradeOffAsExpected(t *testing.T) {
	// A workload with a high cut and no moves: coordinated execution pays
	// per cross-shard transaction; a low-cut heavy-move run pays mostly
	// relocation. The model must rank them accordingly.
	p := DefaultParams()
	highCut := fakeResult(2, 10_000, 0.5, 1.1, 0, 0)
	lowCutHeavyMoves := fakeResult(2, 10_000, 0.05, 1.1, 5_000, 20_000)

	coordHigh := Cost(highCut, Coordinated, p)
	coordLow := Cost(lowCutHeavyMoves, Coordinated, p)
	if coordHigh.Coordination <= coordLow.Coordination {
		t.Error("high-cut run must pay more coordination")
	}
	if coordLow.Relocation <= coordHigh.Relocation {
		t.Error("heavy-move run must pay more relocation")
	}
}

func TestWANParamsRaiseCoordination(t *testing.T) {
	res := fakeResult(2, 1000, 0.5, 1, 0, 0)
	def := Cost(res, Coordinated, DefaultParams())
	wan := Cost(res, Coordinated, WANParams())
	if wan.Coordination != 10*def.Coordination {
		t.Errorf("WAN coordination = %v, want 10x %v", wan.Coordination, def.Coordination)
	}
	if wan.Relocation != def.Relocation {
		t.Error("WAN params must not change relocation prices")
	}
}
