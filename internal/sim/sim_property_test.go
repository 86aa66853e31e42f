package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"ethpart/internal/evm"
	"ethpart/internal/graph"
	"ethpart/internal/trace"
)

// randomRecords builds a time-ordered random interaction stream.
func randomRecords(rng *rand.Rand, n, vertices int, span time.Duration) []trace.Record {
	base := time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC).Unix()
	step := int64(span.Seconds()) / int64(n+1)
	if step < 1 {
		step = 1
	}
	recs := make([]trace.Record, n)
	for i := range recs {
		kind := evm.KindTransaction
		if rng.Intn(4) == 0 {
			kind = evm.KindCall
		}
		recs[i] = trace.Record{
			Time: base + int64(i)*step,
			Kind: kind,
			From: uint64(rng.Intn(vertices)),
			To:   uint64(rng.Intn(vertices)),
		}
	}
	return recs
}

// accountingError checks a finished run's window accounting against its
// run totals: n is the number of records replayed.
func accountingError(res *Result, n int64) error {
	var winSum, moveSum, slotSum int64
	for _, w := range res.Windows {
		winSum += w.Interactions
		moveSum += w.Moves
		slotSum += w.MovedSlots
		if w.DynamicCut < 0 || w.DynamicCut > 1 {
			return fmt.Errorf("window %v: dynamic cut %v outside [0,1]", w.Start, w.DynamicCut)
		}
		k := float64(w.Shards)
		if w.DynamicBalance < 1-1e-9 || w.DynamicBalance > k+1e-9 {
			return fmt.Errorf("window %v: dynamic balance %v outside [1,%v]", w.Start, w.DynamicBalance, k)
		}
		if w.StaticBalance < 1-1e-9 || w.StaticBalance > k+1e-9 {
			return fmt.Errorf("window %v: static balance %v outside [1,%v]", w.Start, w.StaticBalance, k)
		}
	}
	if winSum != n {
		return fmt.Errorf("windows hold %d interactions, replayed %d", winSum, n)
	}
	if moveSum != res.TotalMoves {
		return fmt.Errorf("windows hold %d moves, TotalMoves %d", moveSum, res.TotalMoves)
	}
	if slotSum != res.TotalMovedSlots {
		return fmt.Errorf("windows hold %d moved slots, TotalMovedSlots %d", slotSum, res.TotalMovedSlots)
	}
	return nil
}

// flashCells are the autoscale cells the accounting and callback tests
// share: every method over flashStream — so split, merge-drain and (under
// HASH) re-hash waves are held to what plain repartitions are.
func flashCells() []Config {
	var cells []Config
	for _, m := range Methods() {
		cells = append(cells, flashConfig(m, true))
	}
	return cells
}

func TestPropertyWindowAccountingConsistent(t *testing.T) {
	// Properties over random streams and methods:
	//   1. sum of window interactions == number of records processed;
	//   2. every window's dynamic cut is in [0,1] and balance in [1,k];
	//   3. sum of window moves == TotalMoves (and moved slots likewise);
	//   4. vertices in the result equal the distinct endpoints.
	f := func(seed int64, nRaw, vRaw, mRaw, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%200) + 20
		vertices := int(vRaw%40) + 4
		method := Methods()[int(mRaw)%len(Methods())]
		k := []int{2, 3, 4, 8}[int(kRaw)%4]

		s, err := New(Config{
			Method: method, K: k,
			Window:            2 * time.Hour,
			RepartitionEvery:  24 * time.Hour,
			MinRepartitionGap: 12 * time.Hour,
			TriggerWindows:    2,
		})
		if err != nil {
			return false
		}
		recs := randomRecords(rng, n, vertices, 4*24*time.Hour)
		distinct := map[uint64]bool{}
		for _, r := range recs {
			if err := s.Process(r); err != nil {
				return false
			}
			distinct[r.From] = true
			distinct[r.To] = true
		}
		res := s.Finish()
		if err := accountingError(res, int64(n)); err != nil {
			t.Log(err)
			return false
		}
		return res.Vertices == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}

	// The same accounting across resize waves, plus run-load conservation:
	// every unit of load ever served — one per endpoint per interaction —
	// is still on some shard's books after shards were merged away.
	recs := flashStream()
	var served int64
	for _, r := range recs {
		served++
		if r.From != r.To {
			served++
		}
	}
	for _, cfg := range flashCells() {
		cfg.StorageSlots = func(v graph.VertexID) int { return int(v%5) + 1 }
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		name := cfg.Method.String()
		res := replayAll(t, s, recs)
		if err := accountingError(res, int64(len(recs))); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		var splits, merges int
		for _, ev := range res.Resizes {
			if ev.ToK > ev.FromK {
				splits++
			} else {
				merges++
			}
		}
		if splits == 0 || merges == 0 || res.TotalMovedSlots == 0 {
			t.Errorf("%s: %d splits, %d merges, %d moved slots; the cell needs all three",
				name, splits, merges, res.TotalMovedSlots)
		}
		var booked int64
		for _, l := range s.runLoad {
			booked += l
		}
		if booked != served {
			t.Errorf("%s: run load books %d units, the run served %d", name, booked, served)
		}
	}
}

// TestPropertyIncrementalCutMatchesRecount pins the incremental cut
// accounting (per-move deltas in moveVertex plus per-record updates in
// Process) to a from-scratch O(E) recount over the final graph and
// assignment, across random streams, methods and shard counts.
func TestPropertyIncrementalCutMatchesRecount(t *testing.T) {
	f := func(seed int64, nRaw, mRaw, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%250) + 30
		method := Methods()[int(mRaw)%len(Methods())]
		k := []int{2, 3, 4, 8}[int(kRaw)%4]

		s, err := New(Config{
			Method: method, K: k,
			Window:            2 * time.Hour,
			RepartitionEvery:  24 * time.Hour,
			MinRepartitionGap: 12 * time.Hour,
			TriggerWindows:    2,
		})
		if err != nil {
			return false
		}
		for _, r := range randomRecords(rng, n, 30, 5*24*time.Hour) {
			if err := s.Process(r); err != nil {
				return false
			}
		}
		res := s.Finish()

		var cutE, totE int64
		s.Graph().Edges(func(u, v graph.VertexID, _ int64) bool {
			su, _ := s.Assignment().ShardOf(u)
			sv, _ := s.Assignment().ShardOf(v)
			totE++
			if su != sv {
				cutE++
			}
			return true
		})
		wantCut := 0.0
		if totE > 0 {
			wantCut = float64(cutE) / float64(totE)
		}
		if res.FinalStaticCut != wantCut {
			t.Errorf("%v k=%d: FinalStaticCut = %v, recount %v (cutE=%d totE=%d)",
				method, k, res.FinalStaticCut, wantCut, cutE, totE)
			return false
		}
		if s.cutEdges != cutE || s.totalEdges != totE {
			t.Errorf("%v k=%d: counters %d/%d, recount %d/%d",
				method, k, s.cutEdges, s.totalEdges, cutE, totE)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestPropertyHashNeverMoves(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := New(Config{Method: MethodHash, K: 4})
		if err != nil {
			return false
		}
		for _, r := range randomRecords(rng, int(nRaw)+10, 20, 30*24*time.Hour) {
			if err := s.Process(r); err != nil {
				return false
			}
		}
		res := s.Finish()
		return res.TotalMoves == 0 && res.Repartitions == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyAssignmentCoversAllVertices(t *testing.T) {
	// After any run, every graph vertex has a shard and per-shard counts
	// sum to the vertex count.
	f := func(seed int64, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		method := Methods()[int(mRaw)%len(Methods())]
		s, err := New(Config{Method: method, K: 3, RepartitionEvery: 24 * time.Hour})
		if err != nil {
			return false
		}
		for _, r := range randomRecords(rng, 150, 25, 3*24*time.Hour) {
			if err := s.Process(r); err != nil {
				return false
			}
		}
		ok := true
		s.Graph().Vertices(func(id graph.VertexID, _ graph.Kind, _ int64) bool {
			if _, assigned := s.Assignment().ShardOf(id); !assigned {
				ok = false
				return false
			}
			return true
		})
		if !ok {
			return false
		}
		total := 0
		for _, c := range s.Assignment().Counts() {
			total += c
		}
		return total == s.Graph().VertexCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
