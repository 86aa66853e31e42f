package graph

import (
	"fmt"
	"math"
	"slices"
)

// Windowed decay and retirement. A decaying graph (NewDecaying) tracks, per
// vertex and per directed edge, the epoch of the last interaction that
// touched it; a decay sweep (one per metric window in the simulator)
// advances the epoch, multiplies every live weight by a factor in (0,1],
// and retires whatever has not been touched for maxAge epochs. The
// effective decayed weight of an entry is therefore
//
//	w(age) = max(1, floor(w·factor^age))  while age < maxAge,
//	w(age) = 0                            at age >= maxAge,
//
// i.e. weights shrink exponentially toward the floor of one unit and reach
// zero exactly at the retention horizon. The min-1 clamp keeps integer
// weights from erasing the (majority) weight-1 edges after a single sweep,
// so the half-life governs *ranking* between heavy and light edges while
// the horizon alone governs *lifetime* — which is what bounds memory: the
// live graph is exactly the set of vertices and edges touched within the
// last maxAge epochs.
//
// The sweep is scheduled: it visits only what it can change, so its work
// is O(traffic touched within the horizon), not O(live graph). Two
// observations make that possible without changing a single observable:
//
//  1. The per-sweep rescale w' = max(1, floor(w·factor)) has a fixed
//     point at w == 1 (and, for factor < 1, strictly decreases every
//     w >= 2). The set of weights a sweep can change is therefore exactly
//     the "heavy" set {w >= 2} — in steady state a vanishing fraction of
//     the live graph, since most weights have long since decayed to the
//     floor of one.
//  2. Retirement happens at an entry's touch epoch plus the horizon, a
//     time known the moment the entry is touched. A timer-wheel of
//     maxAge+1 buckets keyed by (touch+maxAge) mod ring files every
//     (re)touch exactly once; at a sweep only the current bucket drains,
//     and entries re-touched since filing are recognised (their age is
//     below the horizon) and skipped.
//
// The schedule therefore keeps: a bucket ring per kind (vertices, edges)
// and a heavy list per kind (entries whose weight is above the floor,
// plus freshly created vertices whose weight the next sweep must
// materialize from zero to one). The horizon is fixed at construction
// because the buckets are keyed by it; the factor stays free per sweep.
//
// Heavy lists may hold duplicate or stale references (an entry retired,
// re-created and re-promoted files a second reference; membership is
// never searched on the hot path). Stale references resolve to a missing
// or light entry and are dropped at the next visit; duplicates are
// defused by the per-entry dec epoch tag, which marks an entry already
// rescaled in the current sweep. The invariant that makes the heavy list
// complete: every entry with weight >= 2 has at least one live reference
// listed (references are filed when a weight leaves the floor and only
// removed by a visit that observed the weight at or below it).
//
// Stored weights are always current: a sweep materializes every weight it
// could change, so readers (Neighbors, Edges, the CSR builder, the
// placement rules, the aggregate counters) need no read-side view. The
// package's tests keep a full-scan sweep over a plain graph as the
// reference; a property test requires the two to agree on every
// observable, iteration order included.
//
// Retired vertices release their slot to the free list (EnsureVertex reuses
// it on reappearance) and their ID is removed from the slot table. The
// caller keeps any external per-vertex state (the simulator's
// shard assignment stays sticky) and re-admits reappearing vertices through
// its normal first-sight path.

// MaxDecayAge bounds the retention horizon of a decaying graph, in sweeps:
// the bucket ring has one slot per epoch of horizon, and beyond ~64k sweeps
// (decades of four-hour windows) its fixed cost stops being worth paying.
const MaxDecayAge = 1 << 16

// DecayDelta summarizes what one decay sweep changed.
type DecayDelta struct {
	// EdgeDrops counts directed edges dropped at the horizon (each distinct
	// (u,v) pair once, however many row copies it had).
	EdgeDrops int
	// EdgeDecays counts directed edges whose weight changed (shrank) this
	// sweep, excluding drops.
	EdgeDecays int
	// Touched counts the entries the sweep actually visited — one per
	// schedule bucket or heavy-list entry. It is the sweep's work metric:
	// O(traffic touched within the horizon) regardless of live-graph size.
	Touched int
}

// Quiet reports whether the sweep changed no edge: nothing dropped,
// nothing rescaled. Consumers maintaining edge-derived counters (the
// simulator's cut counters) can skip their update entirely on quiet
// sweeps.
func (d DecayDelta) Quiet() bool { return d.EdgeDrops == 0 && d.EdgeDecays == 0 }

// edgeRef names a directed edge by its endpoints; the out row of u holds
// the canonical copy.
type edgeRef struct {
	u, v VertexID
}

// heavyVertex references a vertex by slot, with the ID it had when filed
// so a reference left dangling by retirement and slot reuse is
// recognised as stale.
type heavyVertex struct {
	s  int32
	id VertexID
}

// Row-direction bits of decaySchedule.dirty.
const (
	dirtyOut uint8 = 1 << iota
	dirtyIn
)

// decaySchedule is the decay state of a decaying Graph.
type decaySchedule struct {
	maxAge uint32
	// vring and ering are the horizon bucket rings, indexed by target
	// epoch mod (maxAge+1). The bucket drained at epoch e holds exactly
	// the entries filed at epoch e-maxAge; pending buckets target epochs
	// in (e, e+maxAge], so targets never collide within the ring.
	vring [][]VertexID
	ering [][]edgeRef
	// heavyV and heavyE list the entries the next sweep must rescale.
	heavyV []heavyVertex
	heavyE []edgeRef
	// vdec is the slot-parallel vertex counterpart of halfEdge.dec: the
	// epoch of the slot's last rescale, defusing duplicate heavy
	// references within one sweep.
	vdec []uint32
	// Per-sweep scratch: the retiring slots (sorted before retirement),
	// and the rows holding tombstones awaiting compaction — dirty is
	// slot-parallel (dirtyOut|dirtyIn), dirtySlots lists its non-zero
	// entries. Both are empty between sweeps.
	retire     []int32
	dirty      []uint8
	dirtySlots []int32
}

// markDirty records that the out or in row (bit) of slot s holds a
// tombstone the current sweep must compact away.
func (d *decaySchedule) markDirty(s int32, bit uint8) {
	if d.dirty[s] == 0 {
		d.dirtySlots = append(d.dirtySlots, s)
	}
	d.dirty[s] |= bit
}

// NewDecaying returns an empty graph whose DecaySweep retires vertices and
// edges untouched for maxAge or more sweeps. maxAge must be in
// [1, MaxDecayAge].
func NewDecaying(maxAge uint32) (*Graph, error) {
	if maxAge < 1 || maxAge > MaxDecayAge {
		return nil, fmt.Errorf("graph: decay horizon %d outside [1, %d]", maxAge, MaxDecayAge)
	}
	return &Graph{sched: &decaySchedule{
		maxAge: maxAge,
		vring:  make([][]VertexID, maxAge+1),
		ering:  make([][]edgeRef, maxAge+1),
	}}, nil
}

// scheduleExpiry files id into the horizon bucket of the epoch at which
// it becomes eligible to retire if left untouched. Called on the first
// touch of a vertex in each epoch.
func (g *Graph) scheduleExpiry(id VertexID) {
	d := g.sched
	slot := (g.epoch + d.maxAge) % uint32(len(d.vring))
	d.vring[slot] = append(d.vring[slot], id)
}

// scheduleEdgeExpiry is scheduleExpiry for the directed edge u->v.
func (g *Graph) scheduleEdgeExpiry(u, v VertexID) {
	d := g.sched
	slot := (g.epoch + d.maxAge) % uint32(len(d.ering))
	d.ering[slot] = append(d.ering[slot], edgeRef{u: u, v: v})
}

// scheduleVertex registers a newly (re)created vertex: a horizon bucket
// entry, plus a heavy-list entry because its weight of zero must be
// materialized to the floor of one by the next sweep.
func (g *Graph) scheduleVertex(id VertexID, s int32) {
	g.scheduleExpiry(id)
	g.sched.heavyV = append(g.sched.heavyV, heavyVertex{s: s, id: id})
}

// DecaySweep advances the epoch of a decaying graph and applies one decay
// sweep: every vertex and edge weight is multiplied by factor (rounded
// down, clamped to a minimum of one), and vertices and edges untouched for
// the graph's horizon or more epochs — counting the epoch just opened — are
// dropped. onRetire, when non-nil, fires for each vertex just before it
// retires (while its ID and records are still intact), in ascending slot
// order. onDrop, when non-nil, fires exactly once per directed edge dropped
// at the horizon, and never for an edge that stays, so a consumer can
// maintain edge-count counters incrementally; a rescale changes no edge
// count and fires nothing. Callbacks must not mutate the graph.
//
// An out-of-range factor is clamped rather than silently ignored — a
// factor underflowing to 0 (a half-life vastly shorter than the sweep
// interval) must not read as "decay off" and let the graph grow without
// bound: factor <= 0 becomes the smallest positive float (weights collapse
// to the floor of one immediately; retirement still runs on age), factor >
// 1 becomes 1. Sweeping a graph built by New rather than NewDecaying is a
// programming error and panics.
//
// The phases run in an order that keeps every row, and so every iteration
// order a reader can observe, exactly as a full in-order scan would leave
// it:
//
//  1. Drain the edge bucket — horizon-expired edges leave both rows
//     before any vertex retires, so retiring vertices always have empty
//     rows (an edge's touch never exceeds its endpoints', hence its
//     expiry never falls after theirs). Expired entries are tombstoned
//     in place and each touched row is compacted once afterwards: a hub
//     losing d of its deg edges in one sweep pays O(deg), where removing
//     them one at a time paid O(d·deg) in tail moves and index rewrites.
//  2. Drain the vertex bucket, retiring in ascending slot order.
//  3. Rescale the heavy edges, then the heavy vertices. A vertex
//     retiring this sweep is gone by now.
func (g *Graph) DecaySweep(factor float64, onRetire func(VertexID), onDrop func(u, v VertexID)) DecayDelta {
	d := g.sched
	if d == nil {
		panic("graph: DecaySweep on a graph not built by NewDecaying")
	}
	if factor <= 0 {
		factor = math.SmallestNonzeroFloat64
	}
	if factor > 1 {
		factor = 1
	}
	g.epoch++
	e := g.epoch
	var delta DecayDelta

	// Phase 1: horizon-expired edges. A weight of zero is the tombstone —
	// live weights never drop below the floor of one.
	if n := len(g.ids) - len(d.dirty); n > 0 {
		d.dirty = append(d.dirty, make([]uint8, n)...)
	}
	slot := e % uint32(len(d.ering))
	for _, ref := range d.ering[slot] {
		delta.Touched++
		su := g.slotOf(ref.u)
		if su < 0 {
			continue // endpoint retired earlier; rows already clean
		}
		p := g.out[su].find(ref.v)
		if p < 0 {
			continue // edge expired via an earlier filing
		}
		en := &g.out[su].e[p]
		if en.w == 0 || e-en.touch < d.maxAge {
			continue // already dropped, or re-touched since this filing
		}
		w := en.w
		en.w = 0
		d.markDirty(su, dirtyOut)
		if sv := g.slotOf(ref.v); sv >= 0 {
			if q := g.in[sv].find(ref.u); q >= 0 {
				g.in[sv].e[q].w = 0
				d.markDirty(sv, dirtyIn)
			}
		}
		g.numEdges--
		g.totalEdgeWeight -= w
		delta.EdgeDrops++
		if onDrop != nil {
			onDrop(ref.u, ref.v)
		}
	}
	d.ering[slot] = d.ering[slot][:0]
	for _, s := range d.dirtySlots {
		if d.dirty[s]&dirtyOut != 0 {
			g.out[s].compact()
		}
		if d.dirty[s]&dirtyIn != 0 {
			g.in[s].compact()
		}
		d.dirty[s] = 0
	}
	d.dirtySlots = d.dirtySlots[:0]

	// Phase 2: horizon-expired vertices, in ascending slot order.
	d.retire = d.retire[:0]
	slot = e % uint32(len(d.vring))
	for _, id := range d.vring[slot] {
		delta.Touched++
		s := g.slotOf(id)
		if s < 0 || e-g.touch[s] < d.maxAge {
			continue // already retired, or re-touched since this filing
		}
		d.retire = append(d.retire, s)
	}
	d.vring[slot] = d.vring[slot][:0]
	slices.Sort(d.retire)
	for _, s := range d.retire {
		if onRetire != nil {
			onRetire(g.ids[s])
		}
		g.retireSlot(s)
	}

	// Phase 3a: heavy edges. References surviving with weight >= 2 stay
	// listed (in-place filter); the rest drop out.
	he := d.heavyE[:0]
	for _, ref := range d.heavyE {
		delta.Touched++
		su := g.slotOf(ref.u)
		if su < 0 {
			continue
		}
		ro := &g.out[su]
		p := ro.find(ref.v)
		if p < 0 {
			continue // stale: edge expired (possibly just now)
		}
		en := &ro.e[p]
		if en.dec == e {
			continue // duplicate reference; this sweep already rescaled it
		}
		if en.w < 2 {
			continue // stale: a light re-creation reused the endpoints
		}
		en.dec = e
		old := en.w
		nw := int64(float64(old) * factor)
		if nw < 1 {
			nw = 1
		}
		if nw != old {
			en.w = nw
			// Mirror into the in copy so both row copies stay identical.
			sv := g.slotOf(ref.v)
			ri := &g.in[sv]
			if q := ri.find(ref.u); q >= 0 {
				ri.e[q].w = nw
			}
			g.totalEdgeWeight += nw - old
			delta.EdgeDecays++
		}
		if nw >= 2 {
			he = append(he, ref)
		}
	}
	d.heavyE = he

	// Phase 3b: heavy vertices.
	hv := d.heavyV[:0]
	for _, h := range d.heavyV {
		delta.Touched++
		if g.kinds[h.s] == 0 || g.ids[h.s] != h.id {
			continue // stale: retired (slot possibly reused by another ID)
		}
		if d.vdec[h.s] == e {
			continue // duplicate reference
		}
		d.vdec[h.s] = e
		old := g.weights[h.s]
		nw := int64(float64(old) * factor)
		if nw < 1 {
			nw = 1
		}
		g.weights[h.s] = nw
		if nw >= 2 {
			hv = append(hv, h)
		}
	}
	d.heavyV = hv
	return delta
}

// retireSlot frees one vertex slot: the ID is unindexed, the records are
// zeroed (the zero Kind marks the slot free) and the slot joins the free
// list. The vertex's rows are dropped wholesale, their blocks given back
// for the next rows to reuse — every incident edge is at least as old as
// the vertex, so it left both of its rows no later than this sweep's edge
// phase.
func (g *Graph) retireSlot(s int32) {
	g.slot[g.ids[s]] = -1
	g.ids[s] = 0
	g.kinds[s] = 0
	g.weights[s] = 0
	g.giveBlock(g.out[s].e)
	g.giveBlock(g.in[s].e)
	g.out[s] = row{}
	g.in[s] = row{}
	g.free = append(g.free, s)
}
