package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// The eager sweep: the order-aware reference DecaySweep is checked
// against. It runs on a plain (New) graph, takes the horizon per call and
// scans everything, so it shares no bookkeeping with the schedule — only
// the decay contract documented in decay.go.

// eagerSweep is the full-scan sweep: every slot ever allocated is visited
// (free slots cost one kind check each, so the scan is O(peak live size))
// and weight work is proportional to the live graph; aggregate counters
// (EdgeCount, TotalEdgeWeight, TotalVertexWeight) are rebuilt during the
// sweep.
//
// The epoch/touch invariant that makes the sweep safe: a vertex's touch is
// at least the touch of every incident edge (AddInteraction stamps both
// endpoints), so by the time a vertex ages out, every incident edge has
// already been dropped — from both of its row copies, which always carry
// identical touch stamps — and retirement never leaves a dangling edge.
// onEdge consequently fires from exactly one place per directed edge: the
// canonical (out) copy, either in the owner's decayRow pass or, for a
// retiring owner whose rows are dropped wholesale, in the retirement
// branch below.
func (g *Graph) eagerSweep(factor float64, maxAge uint32, onRetire func(VertexID), onEdge func(u, v VertexID, oldW, newW int64)) DecayDelta {
	var delta DecayDelta
	g.epoch++
	g.numEdges = 0
	g.totalEdgeWeight = 0
	g.totalVertWeight = 0
	for s := range g.ids {
		if g.kinds[s] == 0 {
			continue // already free
		}
		delta.Touched++
		if g.epoch-g.touch[s] >= maxAge {
			if onRetire != nil {
				onRetire(g.ids[s])
			}
			// The out row holds this vertex's canonical edge copies; they
			// vanish with the slot (the mirror copies in live neighbours'
			// in rows age out in those neighbours' decayRow pass, silently).
			r := &g.out[s]
			delta.EdgeDrops += len(r.e)
			if onEdge != nil {
				for i := range r.e {
					onEdge(g.ids[s], r.e[i].to, r.e[i].w, 0)
				}
			}
			g.retireSlot(int32(s))
			delta.Retired++
			continue
		}
		g.decayRow(&g.out[s], factor, maxAge, g.ids[s], true, onEdge, &delta)
		g.decayRow(&g.in[s], factor, maxAge, 0, false, nil, nil)
		w := int64(float64(g.weights[s]) * factor)
		if w < 1 {
			w = 1
		}
		g.weights[s] = w
		g.totalVertWeight += w
		g.numEdges += len(g.out[s].e)
		for i := range g.out[s].e {
			g.totalEdgeWeight += g.out[s].e[i].w
		}
	}
	return delta
}

// decayRow decays one adjacency row in place: expired entries are dropped,
// surviving weights shrink by factor with a floor of one. The position
// index is rebuilt (or dropped) to match the compacted row. canon marks the
// row as holding canonical (out) edge copies owned by vertex u: drops and
// rescales are then counted into delta and reported through onEdge; mirror
// (in) rows pass canon false and change silently.
func (g *Graph) decayRow(r *row, factor float64, maxAge uint32, u VertexID, canon bool, onEdge func(u, v VertexID, oldW, newW int64), delta *DecayDelta) {
	j := 0
	for i := range r.e {
		if canon {
			delta.Touched++
		}
		if g.epoch-r.e[i].touch >= maxAge {
			if canon {
				delta.EdgeDrops++
				if onEdge != nil {
					onEdge(u, r.e[i].to, r.e[i].w, 0)
				}
			}
			continue
		}
		w := int64(float64(r.e[i].w) * factor)
		if w < 1 {
			w = 1
		}
		if canon && w != r.e[i].w {
			delta.EdgeDecays++
			if onEdge != nil {
				onEdge(u, r.e[i].to, r.e[i].w, w)
			}
		}
		r.e[j] = r.e[i]
		r.e[j].w = w
		j++
	}
	if j == len(r.e) {
		// Nothing dropped: the rescale already happened in place (j == i
		// throughout), positions are unchanged, the index stays valid.
		return
	}
	r.e = r.e[:j]
	if r.idx == nil {
		return
	}
	if len(r.e) <= rowIndexThreshold {
		r.idx = nil
		return
	}
	clear(r.idx)
	for i := range r.e {
		r.idx[r.e[i].to] = int32(i)
	}
}

// graphDump is an order-aware snapshot of every graph observable: vertices
// in Vertices order, directed edges in Edges order, the in-row copies in
// InNeighbors order (they surface through Neighbors), plus the aggregate
// counters. Two graphs with equal dumps are indistinguishable to any
// reader, iteration order included — which is what keeps CSR builds and
// the goldens downstream of them byte-identical.
type graphDump struct {
	Vertices []vertexDump
	Edges    []edgeDump
	InEdges  []edgeDump
	Epoch    uint32
	NumEdges int
	TotalEW  int64
	TotalVW  int64
}

type vertexDump struct {
	ID   VertexID
	Kind Kind
	W    int64
}

type edgeDump struct {
	U, V VertexID
	W    int64
}

func dumpGraph(g *Graph) graphDump {
	d := graphDump{
		Epoch:    g.Epoch(),
		NumEdges: g.EdgeCount(),
		TotalEW:  g.TotalEdgeWeight(),
		TotalVW:  g.TotalVertexWeight(),
	}
	g.Vertices(func(id VertexID, kind Kind, w int64) bool {
		d.Vertices = append(d.Vertices, vertexDump{ID: id, Kind: kind, W: w})
		g.InNeighbors(id, func(u VertexID, w int64) bool {
			d.InEdges = append(d.InEdges, edgeDump{U: u, V: id, W: w})
			return true
		})
		return true
	})
	g.Edges(func(u, v VertexID, w int64) bool {
		d.Edges = append(d.Edges, edgeDump{U: u, V: v, W: w})
		return true
	})
	return d
}

// sweepTrace collects one sweep's callback output in comparable form:
// retirements in emission order (observable: ascending slot order on both
// paths), edge changes sorted (emission order is an implementation detail
// of the sweep's internal walk and deliberately unspecified).
type sweepTrace struct {
	Retired []VertexID
	Edges   []edgeChange
}

type edgeChange struct {
	U, V       VertexID
	OldW, NewW int64
}

// traceSweep runs one sweep — DecaySweep on a decaying graph, the eager
// reference at maxAge on a plain one — and records its callbacks.
func traceSweep(g *Graph, factor float64, maxAge uint32) (DecayDelta, sweepTrace) {
	var tr sweepTrace
	onRetire := func(id VertexID) { tr.Retired = append(tr.Retired, id) }
	onEdge := func(u, v VertexID, oldW, newW int64) {
		tr.Edges = append(tr.Edges, edgeChange{U: u, V: v, OldW: oldW, NewW: newW})
	}
	var delta DecayDelta
	if g.sched != nil {
		delta = g.DecaySweep(factor, onRetire, onEdge)
	} else {
		delta = g.eagerSweep(factor, maxAge, onRetire, onEdge)
	}
	slices.SortFunc(tr.Edges, func(a, b edgeChange) int {
		if a.U != b.U {
			if a.U < b.U {
				return -1
			}
			return 1
		}
		if a.V != b.V {
			if a.V < b.V {
				return -1
			}
			return 1
		}
		return 0
	})
	return delta, tr
}

// mustDecaying is NewDecaying for horizons the test knows are in range.
func mustDecaying(tb testing.TB, maxAge uint32) *Graph {
	tb.Helper()
	g, err := NewDecaying(maxAge)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestPropertyScheduledDecayMatchesEager drives a decaying graph and a
// plain graph swept by the eager reference with identical
// interaction/sweep interleavings — bursts, quiet gaps long enough to
// retire whole eras, and reappearance of retired IDs — and requires
// identical observables after every sweep: the order-aware graph dump,
// the retirement sequence, the edge-change set, and the DecayDelta change
// counts. This is the equivalence proof for the O(touched) sweep; CI runs
// it under -race.
func TestPropertyScheduledDecayMatchesEager(t *testing.T) {
	f := func(seed int64, nRaw, roundsRaw, ageRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%40) + 2
		rounds := int(roundsRaw%30) + 4
		maxAge := uint32(ageRaw%5) + 1
		factor := [...]float64{0.5, 0.9, 1.0, 0.25}[int(seed&3+3)&3]

		lazy := mustDecaying(t, maxAge)
		eager := New()

		for round := 0; round < rounds; round++ {
			// A burst of traffic over a drifting slice of the ID pool —
			// later rounds re-touch IDs the quiet gaps retired, exercising
			// reappearance (slot reuse with stale schedule references).
			burst := rng.Intn(3 * n)
			base := rng.Intn(n)
			for i := 0; i < burst; i++ {
				it := interactionStream(seed^int64(round*1000+i), n, 1)[0]
				if rng.Intn(4) == 0 {
					// Bias part of the burst toward a drifting hot set so
					// heavy (weight >= 2) entries form and re-form.
					it.to = VertexID((base + i%3) % n)
					it.tk = KindAccount
				}
				if err := lazy.AddInteraction(it.from, it.to, it.fk, it.tk, it.w); err != nil {
					t.Fatalf("lazy AddInteraction: %v", err)
				}
				if err := eager.AddInteraction(it.from, it.to, it.fk, it.tk, it.w); err != nil {
					t.Fatalf("eager AddInteraction: %v", err)
				}
			}
			// One to several sweeps: >maxAge in a row simulates a quiet gap
			// that retires everything untouched.
			sweeps := 1
			if rng.Intn(3) == 0 {
				sweeps = int(maxAge) + 1 + rng.Intn(2)
			}
			for k := 0; k < sweeps; k++ {
				ld, lt := traceSweep(lazy, factor, maxAge)
				ed, et := traceSweep(eager, factor, maxAge)
				if ld.Retired != ed.Retired || ld.EdgeDrops != ed.EdgeDrops || ld.EdgeDecays != ed.EdgeDecays {
					t.Errorf("round %d sweep %d: delta (r=%d,d=%d,c=%d) vs eager (r=%d,d=%d,c=%d)",
						round, k, ld.Retired, ld.EdgeDrops, ld.EdgeDecays,
						ed.Retired, ed.EdgeDrops, ed.EdgeDecays)
					return false
				}
				if !reflect.DeepEqual(lt, et) {
					t.Errorf("round %d sweep %d: traces diverge\nlazy:  %+v\neager: %+v", round, k, lt, et)
					return false
				}
				if ldump, edump := dumpGraph(lazy), dumpGraph(eager); !reflect.DeepEqual(ldump, edump) {
					t.Errorf("round %d sweep %d: graphs diverge\nlazy:  %+v\neager: %+v", round, k, ldump, edump)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestDecaySweepQuietDelta pins the Quiet signal the simulator keys its
// cut-recount skip on: a sweep over a graph whose every weight sits at the
// floor and whose entries are all within the horizon changes nothing, says
// so, and visits nothing.
func TestDecaySweepQuietDelta(t *testing.T) {
	g := mustDecaying(t, 8)
	if err := g.AddInteraction(1, 2, KindAccount, KindAccount, 4); err != nil {
		t.Fatal(err)
	}
	// First sweeps grind the weights down to the floor.
	if d := g.DecaySweep(0.5, nil, nil); d.Quiet() {
		t.Error("first sweep reported quiet")
	}
	g.DecaySweep(0.5, nil, nil)
	// Weights now at 1; further in-horizon sweeps are quiet.
	d := g.DecaySweep(0.5, nil, nil)
	if !d.Quiet() {
		t.Errorf("floor sweep not quiet: %+v", d)
	}
	if d.Touched != 0 {
		t.Errorf("quiet sweep touched %d entries, want 0", d.Touched)
	}
}
