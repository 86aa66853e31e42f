package experiments

import (
	"strings"
	"testing"
	"time"

	"ethpart/internal/sim"
	"ethpart/internal/workload"
)

// testEras compresses the paper's three regimes (growth, attack, boom) into
// three months so the full figure pipeline runs in seconds.
func testEras() []workload.Era {
	d := func(y int, m time.Month, day int) time.Time {
		return time.Date(y, m, day, 0, 0, 0, 0, time.UTC)
	}
	return []workload.Era{
		{
			Name: "growth", Start: d(2016, 11, 1), End: d(2016, 12, 10),
			TxPerDayStart: 4_000, TxPerDayEnd: 20_000, Kind: workload.GrowthExponential,
			NewAccountFrac: 0.3, DeploysPerDay: 8,
			Mix: workload.TxMix{Transfer: 0.7, Token: 0.12, Wallet: 0.08, Crowdsale: 0.04, Game: 0.03, Airdrop: 0.03},
		},
		{
			Name: "attack", Start: d(2016, 12, 10), End: d(2016, 12, 20),
			TxPerDayStart: 80_000, TxPerDayEnd: 80_000, Kind: workload.GrowthLinear,
			NewAccountFrac: 0.1, DummyFrac: 0.8, DeploysPerDay: 2,
			Mix: workload.TxMix{Transfer: 0.15, Token: 0.02, Wallet: 0.01, Crowdsale: 0.01, Game: 0.005, Airdrop: 0.005},
		},
		{
			Name: "boom", Start: d(2016, 12, 20), End: d(2017, 2, 1),
			TxPerDayStart: 25_000, TxPerDayEnd: 60_000, Kind: workload.GrowthExponential,
			NewAccountFrac: 0.22, DeploysPerDay: 15,
			Mix: workload.TxMix{Transfer: 0.5, Token: 0.25, Wallet: 0.08, Crowdsale: 0.08, Game: 0.04, Airdrop: 0.05},
		},
	}
}

func testDataset(t *testing.T) *Dataset {
	t.Helper()
	ds, err := NewDataset(Params{
		Seed:             5,
		Scale:            0.02,
		Eras:             testEras(),
		BlockInterval:    2 * time.Hour,
		RepartitionEvery: 10 * 24 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.GT.Records) < 5_000 {
		t.Fatalf("dataset too small: %d records", len(ds.GT.Records))
	}
	return ds
}

func TestFig1ShowsGrowthAndAttackSpike(t *testing.T) {
	ds := testDataset(t)
	rows, eras, err := ds.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Fatalf("only %d monthly samples", len(rows))
	}
	if len(eras) != 3 {
		t.Fatalf("eras = %d", len(eras))
	}
	// Monotone growth of cumulative counts.
	for i := 1; i < len(rows); i++ {
		if rows[i].Vertices < rows[i-1].Vertices || rows[i].Edges < rows[i-1].Edges {
			t.Fatalf("cumulative counts decreased at %v", rows[i].Month)
		}
	}
	// The attack month (December) must add far more vertices than the
	// first growth month (the paper's order-of-magnitude jump). Row i is
	// the cumulative count at the start of month i+1, so December's
	// growth is the delta of the row flushed on January 1.
	novGrowth := rows[0].Vertices
	var decGrowth int64
	for i := 1; i < len(rows); i++ {
		if rows[i].Month.Month() == time.January {
			decGrowth = rows[i].Vertices - rows[i-1].Vertices
		}
	}
	if decGrowth < 3*novGrowth {
		t.Errorf("attack month growth %d not clearly above pre-attack %d", decGrowth, novGrowth)
	}
}

func TestFig1GrowthFit(t *testing.T) {
	rows := []Fig1Row{}
	base := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	// Fabricate exponential-then-flat edge counts.
	edges := []int64{100, 200, 400, 800, 1600, 1700, 1800, 1900}
	for i, e := range edges {
		rows = append(rows, Fig1Row{Month: base.AddDate(0, i, 0), Edges: e, Vertices: e})
	}
	split := base.AddDate(0, 5, 0)
	pre, post, err := Fig1GrowthFit(rows, split)
	if err != nil {
		t.Fatal(err)
	}
	if pre < 0.6 || pre > 0.8 { // log(2) ≈ 0.693 per month
		t.Errorf("pre rate = %v, want ≈ 0.69", pre)
	}
	if post > 0.1 {
		t.Errorf("post rate = %v, want small", post)
	}
	if pre <= post {
		t.Error("pre-attack growth must exceed post-attack growth")
	}
}

func TestFig2ProducesDOT(t *testing.T) {
	ds := testDataset(t)
	var sb strings.Builder
	if err := ds.Fig2(&sb, 20); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "digraph") {
		t.Fatalf("no DOT header: %q", out[:min(80, len(out))])
	}
	if !strings.Contains(out, "style=dashed") {
		t.Error("Fig 2 subgraph must contain a contract (dashed node)")
	}
	if !strings.Contains(out, "->") {
		t.Error("Fig 2 subgraph must contain edges")
	}
}

func TestFig3SeriesAndCache(t *testing.T) {
	ds := testDataset(t)
	res, err := ds.Fig3(sim.MethodHash)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) < 50 {
		t.Fatalf("only %d windows", len(res.Windows))
	}
	// Cache: a second call returns the identical object.
	res2, err := ds.Fig3(sim.MethodHash)
	if err != nil {
		t.Fatal(err)
	}
	if res != res2 {
		t.Error("dataset cache must return the same result object")
	}
}

func TestFig4CellsCoverMethodsAndPeriods(t *testing.T) {
	// Use a dataset whose records span one Fig-4 period; the windows of
	// other periods are simply empty. We use a 2017-period era so at
	// least one period has data.
	ds := testDataset(t)
	cells, err := ds.Fig4([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(sim.Methods()) * len(fig4Periods)
	if len(cells) != wantCells {
		t.Fatalf("cells = %d, want %d", len(cells), wantCells)
	}
	// The 01.17-06.17 period overlaps the test eras' tail (January 2017);
	// every method must have window samples there.
	for _, c := range cells {
		if c.Period != "01.17-06.17" {
			continue
		}
		if c.CutStats.N == 0 {
			t.Errorf("%v has no window samples in %s", c.Method, c.Period)
		}
		if c.CutStats.Min < 0 || c.CutStats.Max > 1 {
			t.Errorf("%v cut out of range: %+v", c.Method, c.CutStats)
		}
		if c.BalStats.Min < 1-1e-9 {
			t.Errorf("%v balance below 1: %+v", c.Method, c.BalStats)
		}
	}
}

func TestFig5ShapesMatchPaper(t *testing.T) {
	ds := testDataset(t)
	rows, err := ds.Fig5([]int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(sim.Methods())*2 {
		t.Fatalf("rows = %d", len(rows))
	}
	get := func(m sim.Method, k int) Fig5Row {
		for _, r := range rows {
			if r.Method == m && r.K == k {
				return r
			}
		}
		t.Fatalf("missing row %v k=%d", m, k)
		return Fig5Row{}
	}
	// Hash: zero moves, cut grows with k.
	h2, h4 := get(sim.MethodHash, 2), get(sim.MethodHash, 4)
	if h2.Moves != 0 || h4.Moves != 0 {
		t.Error("hash must have zero moves")
	}
	if h4.DynamicCut <= h2.DynamicCut {
		t.Error("hash cut must grow with k")
	}
	// METIS beats hash on cut at every k.
	for _, k := range []int{2, 4} {
		if get(sim.MethodMetis, k).DynamicCut >= get(sim.MethodHash, k).DynamicCut {
			t.Errorf("k=%d: METIS cut not below hash", k)
		}
	}
	// Normalized balance within [0, 1] (+slack for tiny loads).
	for _, r := range rows {
		if r.NormBalance < -1e-9 || r.NormBalance > 1+1e-9 {
			t.Errorf("%v k=%d norm balance = %v", r.Method, r.K, r.NormBalance)
		}
	}
}

// TestPaperClaimsHoldOnEverySeed checks the paper's Fig. 5 orderings on
// seeds 1–5 of the default era history at scale 0.0005 — what
// `experiments -seed N -scale 0.0005 fig5` prints. At every k: HASH moves
// nothing and has the highest dynamic cut, METIS the lowest, and TR-METIS
// moves no more than METIS or R-METIS; every method's cut rises with k.
// About 4 s per seed on 2 vCPUs, so it skips under -short and under the
// race detector (CI runs it in a step of its own).
func TestPaperClaimsHoldOnEverySeed(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("five full fig5 sweeps; skipped under -short and -race")
	}
	ks := []int{2, 4, 8}
	for seed := int64(1); seed <= 5; seed++ {
		ds, err := NewDataset(Params{Seed: seed, Scale: 0.0005})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := ds.Fig5(ks)
		if err != nil {
			t.Fatal(err)
		}
		row := map[sim.Method]map[int]Fig5Row{}
		for _, r := range rows {
			if row[r.Method] == nil {
				row[r.Method] = map[int]Fig5Row{}
			}
			row[r.Method][r.K] = r
		}
		for _, k := range ks {
			hash, metis := row[sim.MethodHash][k], row[sim.MethodMetis][k]
			if hash.Moves != 0 {
				t.Errorf("seed %d k=%d: HASH made %d moves", seed, k, hash.Moves)
			}
			for _, m := range sim.Methods() {
				if m == sim.MethodHash || m == sim.MethodMetis {
					continue
				}
				if c := row[m][k].DynamicCut; c >= hash.DynamicCut || c <= metis.DynamicCut {
					t.Errorf("seed %d k=%d: %v dyn-cut %.4f not strictly between METIS %.4f and HASH %.4f",
						seed, k, m, c, metis.DynamicCut, hash.DynamicCut)
				}
			}
			if tr := row[sim.MethodTRMetis][k].Moves; tr > metis.Moves || tr > row[sim.MethodRMetis][k].Moves {
				t.Errorf("seed %d k=%d: TR-METIS moved %d, METIS %d, R-METIS %d",
					seed, k, tr, metis.Moves, row[sim.MethodRMetis][k].Moves)
			}
		}
		for _, m := range sim.Methods() {
			if c := row[m]; !(c[2].DynamicCut < c[4].DynamicCut && c[4].DynamicCut < c[8].DynamicCut) {
				t.Errorf("seed %d: %v dyn-cut does not rise with k: %.4f, %.4f, %.4f",
					seed, m, c[2].DynamicCut, c[4].DynamicCut, c[8].DynamicCut)
			}
		}
	}
}
