package sim

import (
	"fmt"
	"math"
	"testing"
	"time"

	"ethpart/internal/evm"
	"ethpart/internal/graph"
	"ethpart/internal/trace"
	"ethpart/internal/workload"
)

// rec builds a simple account-to-account interaction record.
func rec(t int64, from, to uint64) trace.Record {
	return trace.Record{Time: t, Kind: evm.KindTransaction, From: from, To: to}
}

func TestParseMethod(t *testing.T) {
	for s, want := range map[string]Method{
		"hash": MethodHash, "KL": MethodKL, "metis": MethodMetis,
		"r-metis": MethodRMetis, "P-METIS": MethodRMetis, "tr-metis": MethodTRMetis,
	} {
		got, err := ParseMethod(s)
		if err != nil || got != want {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseMethod("nope"); err == nil {
		t.Error("unknown method must error")
	}
}

func TestMethodString(t *testing.T) {
	want := []string{"HASH", "KL", "METIS", "R-METIS", "TR-METIS"}
	for i, m := range Methods() {
		if m.String() != want[i] {
			t.Errorf("method %d = %q, want %q", i, m.String(), want[i])
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Method: Method(99), K: 2}); err == nil {
		t.Error("invalid method must be rejected")
	}
}

func TestHashSimulatorBasics(t *testing.T) {
	s, err := New(Config{Method: MethodHash, K: 2, Window: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	// 100 interactions across 4 hours among 20 vertices.
	for i := 0; i < 100; i++ {
		r := rec(base+int64(i)*144, uint64(i%20), uint64((i*7+3)%20))
		if err := s.Process(r); err != nil {
			t.Fatal(err)
		}
	}
	res := s.Finish()
	if len(res.Windows) < 4 {
		t.Fatalf("windows = %d, want >= 4", len(res.Windows))
	}
	if res.TotalMoves != 0 {
		t.Errorf("hash must never move vertices, got %d", res.TotalMoves)
	}
	if res.Repartitions != 0 {
		t.Errorf("hash must never repartition, got %d", res.Repartitions)
	}
	if res.Vertices != 20 {
		t.Errorf("vertices = %d, want 20", res.Vertices)
	}
	if res.OverallDynamicCut <= 0 || res.OverallDynamicCut > 1 {
		t.Errorf("dynamic cut = %v out of range", res.OverallDynamicCut)
	}
}

func TestWindowAccounting(t *testing.T) {
	s, err := New(Config{Method: MethodHash, K: 2, Window: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	// Window 1: 3 interactions. Window 2 (one hour later): 1 interaction.
	for i := 0; i < 3; i++ {
		if err := s.Process(rec(base+int64(i), 1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Process(rec(base+3700, 3, 4)); err != nil {
		t.Fatal(err)
	}
	res := s.Finish()
	if len(res.Windows) != 2 {
		t.Fatalf("windows = %d, want 2", len(res.Windows))
	}
	if res.Windows[0].Interactions != 3 || res.Windows[1].Interactions != 1 {
		t.Errorf("window interaction counts = %d, %d",
			res.Windows[0].Interactions, res.Windows[1].Interactions)
	}
}

func TestEmptyWindowsAreEmitted(t *testing.T) {
	s, err := New(Config{Method: MethodHash, K: 2, Window: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	if err := s.Process(rec(base, 1, 2)); err != nil {
		t.Fatal(err)
	}
	// Next interaction 5 hours later: windows in between must exist.
	if err := s.Process(rec(base+5*3600, 1, 2)); err != nil {
		t.Fatal(err)
	}
	res := s.Finish()
	if len(res.Windows) != 6 {
		t.Fatalf("windows = %d, want 6 (1 active + 4 empty + 1 active)", len(res.Windows))
	}
	for i := 1; i < 5; i++ {
		if res.Windows[i].Interactions != 0 {
			t.Errorf("window %d not empty", i)
		}
		if res.Windows[i].DynamicBalance != 1 {
			t.Errorf("empty window balance = %v, want 1", res.Windows[i].DynamicBalance)
		}
	}
}

func TestSelfInteractionNeverCut(t *testing.T) {
	s, err := New(Config{Method: MethodHash, K: 4, Window: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	if err := s.Process(rec(base, 7, 7)); err != nil {
		t.Fatal(err)
	}
	res := s.Finish()
	if res.OverallDynamicCut != 0 {
		t.Errorf("self-interaction produced cut %v", res.OverallDynamicCut)
	}
	if res.Windows[0].Interactions != 1 {
		t.Error("self-interaction must still count as activity")
	}
}

func TestPeriodicRepartitionFires(t *testing.T) {
	s, err := New(Config{
		Method: MethodMetis, K: 2,
		Window:           time.Hour,
		RepartitionEvery: 24 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	// 3 days of hourly interactions over two clusters joined weakly:
	// cluster A = vertices 0..9, cluster B = 10..19.
	n := int64(0)
	for day := 0; day < 3; day++ {
		for hour := 0; hour < 24; hour++ {
			ts := base + int64(day)*86400 + int64(hour)*3600
			for j := 0; j < 10; j++ {
				a := uint64(n % 10)
				b := uint64((n + 1) % 10)
				if err := s.Process(rec(ts, a, b)); err != nil {
					t.Fatal(err)
				}
				if err := s.Process(rec(ts, 10+a, 10+b)); err != nil {
					t.Fatal(err)
				}
				n++
			}
		}
	}
	res := s.Finish()
	if res.Repartitions < 2 {
		t.Errorf("repartitions = %d, want >= 2 over 3 days with 1-day period", res.Repartitions)
	}
	// After repartitioning the two clusters should be split nearly cleanly.
	if res.FinalStaticCut > 0.15 {
		t.Errorf("final static cut = %v, want small after repartitioning", res.FinalStaticCut)
	}
}

func TestAssignmentChangeCallbacks(t *testing.T) {
	// OnPlace fires exactly once per vertex, OnMove exactly once per wave
	// move (and mirrors the live assignment), OnRepartition once per policy
	// firing and OnResize once per autoscaler firing — each after the last
	// OnMove of its wave, carrying exactly that wave's move count.
	base := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	var clusters []trace.Record
	n := int64(0)
	for day := 0; day < 3; day++ {
		for hour := 0; hour < 24; hour++ {
			ts := base + int64(day)*86400 + int64(hour)*3600
			for j := 0; j < 10; j++ {
				a := uint64(n % 10)
				b := uint64((n + 1) % 10)
				clusters = append(clusters, rec(ts, a, b), rec(ts, 10+a, 10+b))
				n++
			}
		}
	}
	type cell struct {
		name string
		cfg  Config
		recs []trace.Record
	}
	cells := []cell{{"repartition", Config{
		Method: MethodMetis, K: 2,
		Window:           time.Hour,
		RepartitionEvery: 24 * time.Hour,
	}, clusters}}
	for _, cfg := range flashCells() {
		// The /placement=0 suffix keeps the subtest names stable.
		cells = append(cells, cell{fmt.Sprintf("autoscale/%v/placement=0", cfg.Method), cfg, flashStream()})
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			placed := map[graph.VertexID]int{}
			var moveEvents, repartEvents, resizeEvents int
			var movesSeen, waveMoves int
			var s *Simulator
			cfg := c.cfg
			cfg.OnPlace = func(v graph.VertexID, shard int) {
				if _, dup := placed[v]; dup {
					t.Errorf("OnPlace fired twice for %d", v)
				}
				placed[v] = shard
			}
			cfg.OnMove = func(v graph.VertexID, from, to int) {
				moveEvents++
				waveMoves++
				if got, ok := s.Assignment().ShardOf(v); !ok || got != to {
					t.Errorf("OnMove(%d, %d→%d) disagrees with assignment %d,%v", v, from, to, got, ok)
				}
			}
			// waveDone closes one wave: every OnMove since the previous wave
			// callback belongs to it and has already fired.
			waveDone := func(kind string, moves int) {
				if moves != waveMoves {
					t.Errorf("%s reported %d moves after %d OnMove events of its wave", kind, moves, waveMoves)
				}
				movesSeen += moves
				waveMoves = 0
			}
			cfg.OnRepartition = func(_ time.Time, moves int) {
				repartEvents++
				waveDone("OnRepartition", moves)
			}
			var splits, merges int
			cfg.OnResize = func(_ time.Time, oldK, newK, moves int) {
				resizeEvents++
				if newK > oldK {
					splits++
				} else {
					merges++
				}
				if s.cfg.K != newK {
					t.Errorf("OnResize(%d→%d) fired with the simulator at k=%d", oldK, newK, s.cfg.K)
				}
				waveDone("OnResize", moves)
			}
			var err error
			s, err = New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range c.recs {
				if err := s.Process(r); err != nil {
					t.Fatal(err)
				}
			}
			res := s.Finish()
			if len(placed) != res.Vertices {
				t.Errorf("OnPlace fired for %d vertices, graph has %d", len(placed), res.Vertices)
			}
			if int64(moveEvents) != res.TotalMoves {
				t.Errorf("OnMove fired %d times, result counts %d moves", moveEvents, res.TotalMoves)
			}
			if repartEvents != res.Repartitions {
				t.Errorf("OnRepartition fired %d times, result counts %d", repartEvents, res.Repartitions)
			}
			if resizeEvents != len(res.Resizes) {
				t.Errorf("OnResize fired %d times, result records %d resizes", resizeEvents, len(res.Resizes))
			}
			if int64(movesSeen) != res.TotalMoves || waveMoves != 0 {
				t.Errorf("wave callbacks total %d moves (%d unclaimed), result counts %d",
					movesSeen, waveMoves, res.TotalMoves)
			}
			if c.cfg.Autoscale.Enabled && (splits == 0 || merges == 0 || moveEvents == 0) {
				t.Fatalf("autoscale cell saw %d splits, %d merges and %d moves, needs all three",
					splits, merges, moveEvents)
			}
			if !c.cfg.Autoscale.Enabled && res.Repartitions == 0 {
				t.Fatal("test needs at least one repartition to exercise OnMove")
			}
		})
	}
}

func TestTRMetisOnlyFiresAboveThreshold(t *testing.T) {
	mk := func(cut float64) *Result {
		s, err := New(Config{
			Method: MethodTRMetis, K: 2,
			Window:            time.Hour,
			CutThreshold:      cut,
			BalanceThreshold:  99, // effectively disabled
			MinRepartitionGap: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		base := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
		// Two clusters with a steady trickle of cross-cluster traffic, so
		// every window has a small but non-zero dynamic cut.
		n := int64(0)
		for hour := 0; hour < 48; hour++ {
			ts := base + int64(hour)*3600
			for j := 0; j < 20; j++ {
				a := uint64(n % 10)
				b := uint64((n + 3) % 10)
				if err := s.Process(rec(ts, a, b)); err != nil {
					t.Fatal(err)
				}
				if err := s.Process(rec(ts, 10+a, 10+b)); err != nil {
					t.Fatal(err)
				}
				n++
			}
			if err := s.Process(rec(ts, uint64(n%10), 10+uint64(n%10))); err != nil {
				t.Fatal(err)
			}
		}
		return s.Finish()
	}
	// With an unreachable cut threshold nothing fires...
	if res := mk(1.1); res.Repartitions != 0 {
		t.Errorf("repartitions = %d with unreachable threshold", res.Repartitions)
	}
	// ...with a tiny threshold the trigger fires (placement leaves some
	// cross edges on this adversarial interleaving).
	if res := mk(0.0001); res.Repartitions == 0 {
		t.Error("no repartition despite tiny threshold")
	}
}

// smallTrace generates a compact two-week history shared by the
// integration tests below.
func smallTrace(t *testing.T) *GeneratedTrace {
	t.Helper()
	eras := []workload.Era{{
		Name:          "mini",
		Start:         time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC),
		End:           time.Date(2017, 1, 15, 0, 0, 0, 0, time.UTC),
		TxPerDayStart: 8_000, TxPerDayEnd: 20_000, Kind: workload.GrowthExponential,
		NewAccountFrac: 0.25, DeploysPerDay: 8,
		Mix: workload.TxMix{Transfer: 0.55, Token: 0.18, Wallet: 0.1, Crowdsale: 0.07, Game: 0.05, Airdrop: 0.05},
	}}
	gt, err := Generate(workload.Config{
		Seed: 42, Scale: 0.05, Eras: eras, BlockInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(gt.Records) < 2000 {
		t.Fatalf("tiny trace: %d records", len(gt.Records))
	}
	return gt
}

func TestIntegrationMethodShapes(t *testing.T) {
	// The paper's qualitative ordering on a real-ish workload:
	//   - hash: cut ≈ 1/2 at k=2, perfect static balance, zero moves
	//   - multilevel (METIS): cut well below hash
	//   - TR-METIS: fewer moves than R-METIS
	gt := smallTrace(t)

	results := map[Method]*Result{}
	for _, m := range Methods() {
		res, err := Replay(gt, Config{
			Method: m, K: 2,
			Window:            4 * time.Hour,
			RepartitionEvery:  3 * 24 * time.Hour,
			CutThreshold:      0.45,
			BalanceThreshold:  1.6,
			MinRepartitionGap: 2 * 24 * time.Hour,
		})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		results[m] = res
		t.Logf("%-8v cut=%.3f dynBal=%.3f moves=%d reparts=%d",
			m, res.OverallDynamicCut, res.OverallDynamicBalance, res.TotalMoves, res.Repartitions)
	}

	hash := results[MethodHash]
	if hash.TotalMoves != 0 {
		t.Errorf("hash moves = %d, want 0", hash.TotalMoves)
	}
	if math.Abs(hash.OverallDynamicCut-0.5) > 0.12 {
		t.Errorf("hash dynamic cut = %.3f, want ≈ 0.5", hash.OverallDynamicCut)
	}
	if hash.FinalStaticBalance > 1.1 {
		t.Errorf("hash static balance = %.3f, want ≈ 1", hash.FinalStaticBalance)
	}

	metis := results[MethodMetis]
	if metis.OverallDynamicCut >= hash.OverallDynamicCut {
		t.Errorf("METIS cut %.3f not below hash %.3f",
			metis.OverallDynamicCut, hash.OverallDynamicCut)
	}
	if metis.TotalMoves == 0 {
		t.Error("METIS over a growing graph should move vertices")
	}

	r := results[MethodRMetis]
	tr := results[MethodTRMetis]
	if tr.TotalMoves > r.TotalMoves {
		t.Errorf("TR-METIS moves %d exceed R-METIS %d", tr.TotalMoves, r.TotalMoves)
	}
	if tr.Repartitions > r.Repartitions {
		t.Errorf("TR-METIS repartitions %d exceed R-METIS %d", tr.Repartitions, r.Repartitions)
	}

	kl := results[MethodKL]
	if kl.OverallDynamicCut > hash.OverallDynamicCut+0.05 {
		t.Errorf("KL cut %.3f worse than hash %.3f", kl.OverallDynamicCut, hash.OverallDynamicCut)
	}
}

func TestIntegrationCutGrowsWithK(t *testing.T) {
	gt := smallTrace(t)
	var prev float64
	for _, k := range []int{2, 4, 8} {
		res, err := Replay(gt, Config{Method: MethodHash, K: k})
		if err != nil {
			t.Fatal(err)
		}
		want := float64(k-1) / float64(k)
		if math.Abs(res.OverallDynamicCut-want) > 0.15 {
			t.Errorf("k=%d hash cut %.3f, want ≈ %.3f", k, res.OverallDynamicCut, want)
		}
		if res.OverallDynamicCut <= prev {
			t.Errorf("cut did not grow with k: %.3f after %.3f", res.OverallDynamicCut, prev)
		}
		prev = res.OverallDynamicCut
	}
}

func TestReplayDeterministic(t *testing.T) {
	gt := smallTrace(t)
	cfg := Config{Method: MethodRMetis, K: 4, RepartitionEvery: 3 * 24 * time.Hour}
	a, err := Replay(gt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replay(gt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalMoves != b.TotalMoves || a.OverallDynamicCut != b.OverallDynamicCut ||
		len(a.Windows) != len(b.Windows) {
		t.Error("replay must be deterministic")
	}
}

func TestMovedSlotsAccounted(t *testing.T) {
	gt := smallTrace(t)
	res, err := Replay(gt, Config{
		Method: MethodMetis, K: 2, RepartitionEvery: 3 * 24 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMoves > 0 && res.TotalMovedSlots == 0 {
		t.Log("note: no contract among moved vertices (acceptable but unusual)")
	}
	if res.TotalMovedSlots < 0 {
		t.Error("negative moved slots")
	}
}
