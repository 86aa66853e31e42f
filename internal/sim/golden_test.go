package sim

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"ethpart/internal/evm"
	"ethpart/internal/golden"
	"ethpart/internal/trace"
)

// goldenStream is a deterministic synthetic interaction stream (no
// math/rand dependency, so it can never drift with the standard library):
// a drifting active set with bursty traffic and quiet multi-window gaps.
// The LCG is deliberately private to this file — other tests carry their
// own copies — so no shared-helper refactor can ever change the golden
// inputs out from under the pinned values below.
func goldenStream() []trace.Record {
	base := time.Date(2017, 2, 1, 0, 0, 0, 0, time.UTC).Unix()
	var recs []trace.Record
	state := uint64(0x9e3779b97f4a7c15)
	next := func(n uint64) uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return (state >> 33) % n
	}
	t := base
	for phase := 0; phase < 6; phase++ {
		lo := uint64(phase * 12)
		for i := 0; i < 400; i++ {
			from := lo + next(30)
			to := lo + next(30)
			kind := evm.KindTransaction
			if next(4) == 0 {
				kind = evm.KindCall
			}
			recs = append(recs, trace.Record{Time: t, Kind: kind, From: from, To: to})
			t += 97 // ~400 records over ~11 hours
		}
		t += 3600 * 30 // 30-hour quiet gap: several empty 4h windows
	}
	return recs
}

// goldenConfig is the shared policy configuration of the golden runs.
func goldenConfig(m Method, k int) Config {
	return Config{
		Method: m, K: k,
		Window:            4 * time.Hour,
		RepartitionEvery:  2 * 24 * time.Hour,
		MinRepartitionGap: 24 * time.Hour,
		TriggerWindows:    3,
		CutThreshold:      0.3,
		BalanceThreshold:  1.5,
	}
}

// goldenRow is the pinned summary of one run: the counts exactly, the
// four ratios to the 9 decimal places they were captured at.
type goldenRow struct {
	Windows      int   `json:"windows"`
	Repartitions int   `json:"repartitions"`
	Moves        int64 `json:"moves"`
	Vertices     int   `json:"vertices"`
	DynCut       f9    `json:"dyn_cut"`
	DynBal       f9    `json:"dyn_bal"`
	StaticCut    f9    `json:"static_cut"`
	StaticBal    f9    `json:"static_bal"`
}

func summarize(res *Result) goldenRow {
	return goldenRow{
		Windows: len(res.Windows), Repartitions: res.Repartitions,
		Moves: res.TotalMoves, Vertices: res.Vertices,
		DynCut: f9(res.OverallDynamicCut), DynBal: f9(res.OverallDynamicBalance),
		StaticCut: f9(res.FinalStaticCut), StaticBal: f9(res.FinalStaticBalance),
	}
}

// sameRow holds the counts exact and the ratios to close9.
func sameRow(got, want goldenRow) bool {
	return got.Windows == want.Windows && got.Repartitions == want.Repartitions &&
		got.Moves == want.Moves && got.Vertices == want.Vertices &&
		close9(got.DynCut, want.DynCut) && close9(got.DynBal, want.DynBal) &&
		close9(got.StaticCut, want.StaticCut) && close9(got.StaticBal, want.StaticBal)
}

// TestGoldenDecayDisabled pins decay-disabled mode to the pre-decay-PR
// results (testdata/decay_disabled.json, one row per method × k): the decay
// subsystem is strictly opt-in, and a zero DecayHalfLife must reproduce
// full-history behaviour bit for bit. Every row was captured before the
// decay subsystem existed. The TR-METIS trigger fix (quiet windows neither
// erase nor — past a TriggerWindows-long gap — extend bad streaks, and
// firing requires a fresh degraded window) happens to be
// behaviour-preserving on this stream because its quiet gaps are all
// longer than TriggerWindows; the differing short-gap and stale-evidence
// cases are pinned by the TestTrigger* regression tests instead.
func TestGoldenDecayDisabled(t *testing.T) {
	g := golden.Object(t, "testdata/decay_disabled.json", sameRow)
	recs := goldenStream()
	for _, m := range Methods() {
		for _, k := range []int{2, 4} {
			s, err := New(goldenConfig(m, k))
			if err != nil {
				t.Fatal(err)
			}
			g.Check(t, fmt.Sprintf("%v/k=%d", m, k), summarize(replayAll(t, s, recs)))
		}
	}
	g.Done(t)
}

// close9 compares to the 9 decimal places the goldens were captured at.
func close9(a, b f9) bool {
	d := a - b
	return d < 5e-10 && d > -5e-10
}

// f9 is a ratio the goldens pin; it is written at 9 decimal places.
type f9 float64

func (f f9) MarshalJSON() ([]byte, error) {
	return strconv.AppendFloat(nil, float64(f), 'f', 9, 64), nil
}
