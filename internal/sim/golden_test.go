package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"ethpart/internal/evm"
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
	g := openGolden(t, "testdata/decay_disabled.json", sameRow)
	recs := goldenStream()
	for _, m := range Methods() {
		for _, k := range []int{2, 4} {
			s, err := New(goldenConfig(m, k))
			if err != nil {
				t.Fatal(err)
			}
			g.check(t, fmt.Sprintf("%v/k=%d", m, k), summarize(replayAll(t, s, recs)))
		}
	}
	g.done(t)
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

// updateGoldens is the one re-pin switch (DESIGN.md §10, "Re-pinning"):
// `UPDATE_GOLDENS=1 go test ./...` rewrites every pinned file whose
// content the code no longer reproduces.
var updateGoldens = os.Getenv("UPDATE_GOLDENS") != ""

// golden is one pinned JSON object of named cells. A test checks each cell
// it computes, then calls done.
type golden[T any] struct {
	path      string
	same      func(got, want T) bool
	want, got map[string]T
	moved     []string
}

// openGolden reads the cells pinned at path. A missing file fails the
// test, except under the switch, which writes it.
func openGolden[T any](t *testing.T, path string, same func(got, want T) bool) *golden[T] {
	t.Helper()
	g := &golden[T]{path: path, same: same, want: map[string]T{}, got: map[string]T{}}
	buf, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(buf, &g.want)
	}
	if err != nil && !(updateGoldens && errors.Is(err, fs.ErrNotExist)) {
		t.Fatal(err)
	}
	return g
}

// check compares one computed cell with its pinned value. A moved cell
// fails t, or under the switch goes into done's report.
func (g *golden[T]) check(t *testing.T, key string, got T) {
	t.Helper()
	g.got[key] = got
	if want, ok := g.want[key]; ok && g.same(got, want) {
		return
	}
	g.report(t, key)
}

// report records that key moved: "key: pinned → computed", "-" for a side
// that lacks it.
func (g *golden[T]) report(t *testing.T, key string) {
	t.Helper()
	moved := fmt.Sprintf("%s: %s → %s", key, cellText(g.want, key), cellText(g.got, key))
	if updateGoldens {
		g.moved = append(g.moved, moved)
	} else {
		t.Errorf("%s moved (pinned → computed; UPDATE_GOLDENS=1 re-pins) %s", g.path, moved)
	}
}

// done fails on a pinned cell the test did not compute. Under the switch it
// rewrites the file from the computed cells when its bytes differ, and
// fails listing every move: a failure is what plain `go test` prints, and
// the next plain run passes.
func (g *golden[T]) done(t *testing.T) {
	t.Helper()
	for _, key := range slices.Sorted(maps.Keys(g.want)) {
		if _, ok := g.got[key]; !ok {
			g.report(t, key)
		}
	}
	if !updateGoldens {
		return
	}
	buf, err := json.MarshalIndent(g.got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if old, err := os.ReadFile(g.path); err == nil && bytes.Equal(old, buf) {
		return
	}
	if err := os.WriteFile(g.path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if len(g.moved) == 0 {
		g.moved = []string{"no cell moved; the file's layout did"}
	}
	slices.Sort(g.moved)
	t.Errorf("re-pinned %s (pinned → computed):\n\t%s", g.path, strings.Join(g.moved, "\n\t"))
}

// cellText is a cell as the file holds it, or "-" when cells lacks key.
func cellText[T any](cells map[string]T, key string) string {
	v, ok := cells[key]
	if !ok {
		return "-"
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err.Error()
	}
	return string(b)
}
