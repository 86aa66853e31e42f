package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// decayOracle is a map-based reference implementation of the windowed
// decay/retirement contract: per-vertex and per-edge touch epochs, floor
// decay with a minimum of one, drop at the retention horizon.
type decayOracle struct {
	kinds  map[VertexID]Kind
	weight map[VertexID]int64
	vtouch map[VertexID]uint32
	out    map[VertexID]map[VertexID]int64
	etouch map[[2]VertexID]uint32
	epoch  uint32
}

func newDecayOracle() *decayOracle {
	return &decayOracle{
		kinds:  make(map[VertexID]Kind),
		weight: make(map[VertexID]int64),
		vtouch: make(map[VertexID]uint32),
		out:    make(map[VertexID]map[VertexID]int64),
		etouch: make(map[[2]VertexID]uint32),
	}
}

func (o *decayOracle) add(from, to VertexID, fk, tk Kind, w int64) {
	if _, ok := o.kinds[from]; !ok {
		o.kinds[from] = fk
	}
	if _, ok := o.kinds[to]; !ok {
		o.kinds[to] = tk
	}
	o.weight[from] += w
	o.vtouch[from] = o.epoch
	if from == to {
		return
	}
	o.weight[to] += w
	o.vtouch[to] = o.epoch
	m := o.out[from]
	if m == nil {
		m = make(map[VertexID]int64)
		o.out[from] = m
	}
	m[to] += w
	o.etouch[[2]VertexID{from, to}] = o.epoch
}

func decayed(w int64, factor float64) int64 {
	d := int64(float64(w) * factor)
	if d < 1 {
		d = 1
	}
	return d
}

func (o *decayOracle) decay(factor float64, maxAge uint32) {
	o.epoch++
	for e, touch := range o.etouch {
		if o.epoch-touch >= maxAge {
			delete(o.out[e[0]], e[1])
			delete(o.etouch, e)
			continue
		}
		o.out[e[0]][e[1]] = decayed(o.out[e[0]][e[1]], factor)
	}
	for v, touch := range o.vtouch {
		if o.epoch-touch >= maxAge {
			delete(o.kinds, v)
			delete(o.weight, v)
			delete(o.vtouch, v)
			delete(o.out, v)
			continue
		}
		o.weight[v] = decayed(o.weight[v], factor)
	}
}

func (o *decayOracle) totals() (edges int, ew, vw int64) {
	for _, m := range o.out {
		for _, w := range m {
			edges++
			ew += w
		}
	}
	for _, w := range o.weight {
		vw += w
	}
	return edges, ew, vw
}

// TestPropertyDecayMatchesOracle interleaves random interaction bursts with
// decay sweeps and requires the dense graph (free-listed slots, compacted
// rows, rebuilt aggregates) to agree with the map oracle on every
// observable, including after retired vertices reappear.
func TestPropertyDecayMatchesOracle(t *testing.T) {
	f := func(seed int64, nRaw, rounds, fRaw, aRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%30) + 2
		factor := 0.3 + 0.7*float64(fRaw%100)/100 // (0.3, 1.0)
		maxAge := uint32(aRaw%4) + 1
		g := mustDecaying(t, maxAge)
		o := newDecayOracle()

		for round := 0; round < int(rounds%8)+2; round++ {
			// A burst drawn from a drifting window of the ID space, so some
			// vertices go quiet long enough to retire.
			lo := round * n / 2
			for i := 0; i < 1+rng.Intn(40); i++ {
				from := VertexID(lo + rng.Intn(n))
				to := VertexID(lo + rng.Intn(n))
				fk, tk := KindAccount, KindContract
				if rng.Intn(9) == 0 {
					// Out of range: refused, so the oracle never sees it.
					if !refuses(g, from, VertexID(1)<<40+to, fk, tk, 1) {
						t.Errorf("round %d: an out-of-range endpoint was not refused cleanly", round)
						return false
					}
					continue
				}
				w := int64(1 + rng.Intn(4))
				if err := g.AddInteraction(from, to, fk, tk, w); err != nil {
					t.Fatalf("AddInteraction: %v", err)
				}
				o.add(from, to, fk, tk, w)
			}
			g.DecaySweep(factor, nil, nil)
			o.decay(factor, maxAge)

			if g.VertexCount() != len(o.kinds) {
				t.Errorf("VertexCount = %d, oracle %d", g.VertexCount(), len(o.kinds))
				return false
			}
			edges, ew, vw := o.totals()
			if g.EdgeCount() != edges || g.TotalEdgeWeight() != ew || g.TotalVertexWeight() != vw {
				t.Errorf("totals (%d,%d,%d), oracle (%d,%d,%d)", g.EdgeCount(),
					g.TotalEdgeWeight(), g.TotalVertexWeight(), edges, ew, vw)
				return false
			}
			for id, kind := range o.kinds {
				if g.VertexKind(id) != kind || g.VertexWeight(id) != o.weight[id] {
					t.Errorf("vertex %d: kind %v weight %d, oracle %v %d",
						id, g.VertexKind(id), g.VertexWeight(id), kind, o.weight[id])
					return false
				}
				for v, w := range o.out[id] {
					if g.EdgeWeight(id, v) != w {
						t.Errorf("EdgeWeight(%d,%d) = %d, oracle %d", id, v, g.EdgeWeight(id, v), w)
						return false
					}
				}
			}
			// No ghost vertices: everything the graph reports must be in the
			// oracle (retired slots must not leak into iteration).
			ghost := false
			g.Vertices(func(id VertexID, _ Kind, _ int64) bool {
				if _, ok := o.kinds[id]; !ok {
					ghost = true
					return false
				}
				return true
			})
			g.Edges(func(u, v VertexID, w int64) bool {
				if o.out[u][v] != w {
					ghost = true
					return false
				}
				return true
			})
			if ghost {
				t.Error("graph reports a vertex or edge the oracle retired")
				return false
			}
			// The CSR over the decayed graph covers exactly the live set.
			csr := NewCSR(g)
			if err := csr.Validate(); err != nil {
				t.Errorf("CSR validate after decay: %v", err)
				return false
			}
			if csr.N() != len(o.kinds) {
				t.Errorf("CSR.N = %d, oracle %d", csr.N(), len(o.kinds))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestDecayIdentitySweepIsNoOp pins the identity sweep: factor 1 with an
// unreachable horizon must leave every observable untouched.
func TestDecayIdentitySweepIsNoOp(t *testing.T) {
	g, want := mustDecaying(t, MaxDecayAge), mustDecaying(t, MaxDecayAge)
	for _, it := range interactionStream(7, 40, 120) {
		for _, h := range []*Graph{g, want} {
			if err := h.AddInteraction(it.from, it.to, it.fk, it.tk, it.w); err != nil {
				t.Fatal(err)
			}
		}
	}
	if retired := g.DecaySweep(1, nil, nil).Retired; retired != 0 {
		t.Fatalf("identity sweep retired %d vertices", retired)
	}
	if g.VertexCount() != want.VertexCount() || g.EdgeCount() != want.EdgeCount() ||
		g.TotalEdgeWeight() != want.TotalEdgeWeight() || g.TotalVertexWeight() != want.TotalVertexWeight() {
		t.Fatal("identity sweep changed aggregate counters")
	}
	want.Vertices(func(id VertexID, kind Kind, w int64) bool {
		if g.VertexKind(id) != kind || g.VertexWeight(id) != w {
			t.Errorf("vertex %d changed under identity sweep", id)
			return false
		}
		return true
	})
	want.Edges(func(u, v VertexID, w int64) bool {
		if g.EdgeWeight(u, v) != w {
			t.Errorf("edge %d->%d changed under identity sweep", u, v)
			return false
		}
		return true
	})
}

// TestEnsureVertexRejectsInvalidKind guards the free-slot marker: the zero
// Kind is reserved internally, so admitting it would plant a ghost slot
// that iteration and retirement skip forever while VertexCount counts it.
func TestEnsureVertexRejectsInvalidKind(t *testing.T) {
	g := New()
	if g.EnsureVertex(1, 0) {
		t.Fatal("EnsureVertex accepted the invalid zero Kind")
	}
	if g.HasVertex(1) || g.VertexCount() != 0 {
		t.Fatal("rejected vertex left state behind")
	}
	if !g.EnsureVertex(1, KindAccount) {
		t.Fatal("valid kind refused")
	}
}

// TestDecayClampsOutOfRangeArgs pins the handling of out-of-range decay
// parameters: a factor that underflowed to zero must still sweep — silently
// doing nothing would let the graph grow unbounded while the caller
// believes decay is on — and a horizon outside [1, MaxDecayAge] is refused
// at construction rather than clamped or truncated.
func TestDecayClampsOutOfRangeArgs(t *testing.T) {
	g := mustDecaying(t, 2)
	if err := g.AddInteraction(1, 2, KindAccount, KindAccount, 100); err != nil {
		t.Fatal(err)
	}
	// factor 0 clamps to the smallest positive float: weights collapse to
	// the floor of one, the sweep still runs.
	if retired := g.DecaySweep(0, nil, nil).Retired; retired != 0 {
		t.Fatalf("first sweep retired %d, want 0 (age 1 < maxAge 2)", retired)
	}
	if w := g.VertexWeight(1); w != 1 {
		t.Errorf("underflowed factor must collapse weights to the floor of one, got %d", w)
	}
	// factor > 1 clamps to 1: weights never grow, retirement still runs.
	if retired := g.DecaySweep(7, nil, nil).Retired; retired != 2 {
		t.Errorf("second sweep retired %d, want 2 (age 2 at maxAge 2)", retired)
	}
	if g.VertexCount() != 0 {
		t.Errorf("live vertices = %d, want 0", g.VertexCount())
	}

	for _, maxAge := range []uint32{0, MaxDecayAge + 1} {
		if _, err := NewDecaying(maxAge); err == nil {
			t.Errorf("NewDecaying(%d) accepted an out-of-range horizon", maxAge)
		}
	}
	if _, err := NewDecaying(MaxDecayAge); err != nil {
		t.Errorf("NewDecaying refused the horizon at the bound: %v", err)
	}
}

// TestDecayReusesRetiredSlots checks the free list: retire a generation of
// vertices, add a new generation, and the slot storage must not grow.
func TestDecayReusesRetiredSlots(t *testing.T) {
	g := mustDecaying(t, 1)
	for i := 0; i < 100; i++ {
		if err := g.AddInteraction(VertexID(i), VertexID(i+100), KindAccount, KindAccount, 1); err != nil {
			t.Fatal(err)
		}
	}
	slots := len(g.ids)
	if retired := g.DecaySweep(0.5, nil, nil).Retired; retired != 200 {
		t.Fatalf("retired %d vertices, want 200", retired)
	}
	if g.VertexCount() != 0 || g.EdgeCount() != 0 {
		t.Fatalf("live graph not empty after full retirement: %d vertices, %d edges",
			g.VertexCount(), g.EdgeCount())
	}
	for i := 0; i < 100; i++ {
		if err := g.AddInteraction(VertexID(i+500), VertexID(i+700), KindAccount, KindAccount, 1); err != nil {
			t.Fatal(err)
		}
	}
	if len(g.ids) != slots {
		t.Errorf("slot storage grew from %d to %d despite %d free slots",
			slots, len(g.ids), 200)
	}
	if g.VertexCount() != 200 {
		t.Errorf("VertexCount = %d, want 200", g.VertexCount())
	}
	if err := NewCSR(g).Validate(); err != nil {
		t.Errorf("CSR over reused slots: %v", err)
	}
}

// TestDecayRetireReappearKeepsEdges checks the retire-then-reappear
// round-trip: a vertex that ages out and comes back builds fresh adjacency
// without resurrecting pre-retirement edges.
func TestDecayRetireReappearKeepsEdges(t *testing.T) {
	g := mustDecaying(t, 2)
	mustAdd := func(u, v VertexID) {
		t.Helper()
		if err := g.AddInteraction(u, v, KindAccount, KindAccount, 3); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(1, 2)
	mustAdd(2, 3)
	g.DecaySweep(0.5, nil, nil) // age 1: everything survives
	if g.VertexCount() != 3 {
		t.Fatalf("VertexCount = %d, want 3", g.VertexCount())
	}
	mustAdd(2, 3) // keep 2,3 fresh; 1 ages out next sweep
	g.DecaySweep(0.5, nil, nil)
	if g.HasVertex(1) {
		t.Fatal("vertex 1 should have retired")
	}
	if g.EdgeWeight(2, 1) != 0 || g.EdgeWeight(1, 2) != 0 {
		t.Fatal("edges of retired vertex 1 survived")
	}
	mustAdd(1, 3) // reappearance
	if !g.HasVertex(1) || g.EdgeWeight(1, 3) != 3 {
		t.Fatal("reappeared vertex 1 missing its fresh edge")
	}
	if g.EdgeWeight(1, 2) != 0 {
		t.Fatal("pre-retirement edge 1->2 resurrected")
	}
	if err := NewCSR(g).Validate(); err != nil {
		t.Fatalf("CSR after retire/reappear: %v", err)
	}
}
