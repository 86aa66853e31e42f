// Package graph implements the weighted directed multigraph used to model a
// blockchain: vertices are accounts and smart contracts, edges are
// interactions between them (currency transfers and contract activations),
// and weights count how often a vertex or an edge appears in the workload.
//
// The package supports incremental construction (one interaction at a time,
// as transactions execute), snapshots, windowed sub-graphs, a compact CSR
// form consumed by the partitioners, DOT export for visualisation, and
// windowed exponential decay with retirement (NewDecaying, DecaySweep) so
// long-running callers can keep the live graph bounded by the active set
// instead of the full history.
//
// Storage is dense: the trace registry assigns vertex IDs from zero, so the
// graph keeps per-vertex records in slices indexed through a VertexID->slot
// table instead of hash maps. Adjacency rows are append-only slices of
// half edges carved from a shared arena; rows that grow past a threshold
// (hub contracts) gain a lazily built position index so edge lookups stay
// O(1) without paying a map per vertex. Reset empties a graph but keeps
// that storage, so a window graph rebuilt at every repartition wave grows
// it once instead of at every wave.
package graph

import (
	"fmt"
	"slices"
)

// VertexID uniquely identifies an account or contract in the graph.
//
// IDs are indices minted by the address registry (trace.Registry), counting
// up from zero, and are stable across snapshots: the same account keeps the
// same ID for the life of the blockchain. Every ID is below MaxVertexID; the
// graph's ID table grows to the largest ID seen.
type VertexID uint64

// MaxVertexID is the exclusive bound of the vertex-ID space, the one bound
// every dense VertexID-indexed table in the tree (graph slots, partition
// assignments, directory pages) shares. A scale-1.0 era history would mint
// ≈ 22M IDs, about a third of it, if the registry growth measured up to
// scale 0.016 holds. An ID at or above it is refused wherever one can
// arrive.
const MaxVertexID VertexID = 1 << 26

// Kind distinguishes externally-owned accounts from smart contracts.
type Kind uint8

// Vertex kinds. The zero value is invalid so that an unset Kind is caught
// early.
const (
	// KindAccount is an externally-owned account controlled by a user key.
	KindAccount Kind = iota + 1
	// KindContract is a smart contract whose code lives in the blockchain.
	KindContract
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindAccount:
		return "account"
	case KindContract:
		return "contract"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Valid reports whether k is one of the declared kinds.
func (k Kind) Valid() bool { return k == KindAccount || k == KindContract }

// rowIndexThreshold is the row length beyond which a row builds its
// neighbour-position index. Small rows (the vast majority) use a linear
// scan over a contiguous slice, which beats a map well past a dozen
// entries; hub rows amortise the map across thousands of lookups.
const rowIndexThreshold = 32

// halfEdge is one directed adjacency entry: the far endpoint, the
// accumulated edge weight and the epoch the edge was last touched in.
// Neighbour, weight and touch share a struct so a row is one contiguous
// allocation instead of three parallel ones. Both copies of an edge (the
// out row of u and the in row of v) always carry identical weight and
// touch, so a decay sweep drops or keeps them consistently without any
// cross-row surgery.
//
// dec tags the epoch a decay sweep last rescaled this entry (meaningful on
// the out copy only, which is the canonical one): the heavy list may carry
// duplicate references to one edge, and the tag makes the second visit
// within a sweep a no-op instead of a double decay. It occupies what used
// to be struct padding, so the entry stays 24 bytes.
type halfEdge struct {
	to    VertexID
	w     int64
	touch uint32 // epoch of the last AddInteraction on this edge
	dec   uint32 // epoch of the last decay rescale (out copy only)
}

// row is one adjacency direction of a vertex: half edges in insertion
// order, with a lazily built position index once the row grows past
// rowIndexThreshold.
type row struct {
	e   []halfEdge
	idx map[VertexID]int32 // nil while len(e) <= rowIndexThreshold
}

// find returns the position of v in the row, or -1.
func (r *row) find(v VertexID) int32 {
	if r.idx != nil {
		if p, ok := r.idx[v]; ok {
			return p
		}
		return -1
	}
	for i := range r.e {
		if r.e[i].to == v {
			return int32(i)
		}
	}
	return -1
}

// add accumulates weight w onto the edge to v, creating the entry if it is
// new. It reports whether the entry was created and, for existing entries,
// the weight and touch epoch it had before this call (zero for created
// ones) — a decaying graph uses them to decide whether the edge needs a
// new horizon bucket or a heavy-list entry. New rows draw their
// first block from g's edge arena.
func (r *row) add(g *Graph, v VertexID, w int64) (created bool, oldW int64, oldTouch uint32) {
	if p := r.find(v); p >= 0 {
		oldW, oldTouch = r.e[p].w, r.e[p].touch
		r.e[p].w += w
		r.e[p].touch = g.epoch
		return false, oldW, oldTouch
	}
	if r.e == nil {
		r.e = g.newRowBlock()
	}
	r.e = append(r.e, halfEdge{to: v, w: w, touch: g.epoch})
	if r.idx != nil {
		r.idx[v] = int32(len(r.e) - 1)
	} else if len(r.e) > rowIndexThreshold {
		r.idx = make(map[VertexID]int32, 2*len(r.e))
		for i := range r.e {
			r.idx[r.e[i].to] = int32(i)
		}
	}
	return true, 0, 0
}

// compact removes the tombstoned entries (weight zero, set by the decay
// sweep) in one pass, preserving the order of the survivors (iteration
// order is observable through Neighbors and Edges). The position index is
// rebuilt once to match, or dropped when the row falls back under
// rowIndexThreshold.
func (r *row) compact() {
	j := 0
	for i := range r.e {
		if r.e[i].w == 0 {
			continue
		}
		r.e[j] = r.e[i]
		j++
	}
	r.e = r.e[:j]
	if r.idx == nil {
		return
	}
	if j <= rowIndexThreshold {
		r.idx = nil
		return
	}
	clear(r.idx)
	for i := range r.e {
		r.idx[r.e[i].to] = int32(i)
	}
}

// Graph is a directed multigraph with weighted vertices and edges.
//
// A Graph is not safe for concurrent mutation; wrap it in a lock if multiple
// goroutines build it. Read-only access after construction is safe.
//
// The zero value is not usable; call New.
type Graph struct {
	// slot maps VertexID -> dense slot, -1 for absent vertices. Its length
	// tracks the largest ID seen plus one, so sparse windowed sub-graphs pay
	// four bytes per ID of address space, not a full vertex record.
	slot []int32
	// Per-slot vertex records, in insertion order. A slot whose kind is the
	// zero value is free (its vertex was retired by DecaySweep); free
	// slots are reused by EnsureVertex through the free list, so a graph
	// with windowed decay keeps its record storage O(live vertices) however
	// long it runs.
	ids     []VertexID
	kinds   []Kind
	weights []int64  // dynamic weight: interactions the vertex took part in
	touch   []uint32 // epoch of the last interaction involving the vertex
	out     []row    // out[s] lists v with edge ids[s]->v
	in      []row    // in[s] lists u with edge u->ids[s]
	// free lists retired slots available for reuse.
	free []int32
	// epoch counts DecaySweep calls; touch stamps compare against it.
	epoch uint32
	// sched, non-nil on a decaying graph (NewDecaying), holds the decay
	// state: horizon buckets and heavy lists that make a sweep O(touched
	// traffic) instead of O(live graph).
	sched *decaySchedule

	// arena hands out the initial fixed-size block of every adjacency row.
	// Most vertices stay within one block for their whole life, so row
	// storage costs one allocation per few hundred rows instead of one
	// each; rows that outgrow their block migrate to their own slice via
	// ordinary append growth.
	arena []halfEdge

	numEdges        int   // number of distinct directed (u,v) pairs
	totalEdgeWeight int64 // sum of all directed edge weights
	totalVertWeight int64 // sum of all vertex weights
}

// rowBlockCap is the capacity of a row's initial arena block.
const rowBlockCap = 4

// newRowBlock carves a zero-length, rowBlockCap-capacity block off the
// arena. The full slice expression caps the block so a row growing past it
// reallocates privately instead of clobbering its arena neighbour.
func (g *Graph) newRowBlock() []halfEdge {
	if cap(g.arena)-len(g.arena) < rowBlockCap {
		g.arena = make([]halfEdge, 0, 1024*rowBlockCap)
	}
	lo := len(g.arena)
	g.arena = g.arena[:lo+rowBlockCap]
	return g.arena[lo : lo : lo+rowBlockCap]
}

// New returns an empty graph that never decays; see NewDecaying.
func New() *Graph {
	return &Graph{}
}

// slotOf returns the dense slot of id, or -1.
func (g *Graph) slotOf(id VertexID) int32 {
	if id < VertexID(len(g.slot)) {
		return g.slot[id]
	}
	return -1
}

// EnsureVertex adds a vertex with the given kind if it does not exist yet and
// returns true if the vertex was created. The kind of an existing vertex is
// never changed: accounts that later deploy code are modelled as separate
// contract vertices by the caller. An invalid kind or an ID at or above
// MaxVertexID is refused (returns false without creating anything): the
// zero Kind marks free slots internally, so admitting it would plant a
// ghost slot that iteration and retirement skip forever.
func (g *Graph) EnsureVertex(id VertexID, kind Kind) bool {
	if !kind.Valid() || id >= MaxVertexID || g.slotOf(id) >= 0 {
		return false
	}
	var s int32
	if n := len(g.free); n > 0 {
		// Reuse a retired slot: its rows were already reset at retirement.
		s = g.free[n-1]
		g.free = g.free[:n-1]
		g.ids[s] = id
		g.kinds[s] = kind
		g.weights[s] = 0
		g.touch[s] = g.epoch
		g.indexSlot(id, s)
		if g.sched != nil {
			g.sched.vdec[s] = 0
			g.scheduleVertex(id, s)
		}
		return true
	}
	s = int32(len(g.ids))
	g.ids = append(g.ids, id)
	g.kinds = append(g.kinds, kind)
	g.weights = append(g.weights, 0)
	g.touch = append(g.touch, g.epoch)
	g.out = extendRows(g.out)
	g.in = extendRows(g.in)
	g.indexSlot(id, s)
	if g.sched != nil {
		g.sched.vdec = append(g.sched.vdec, 0)
		g.scheduleVertex(id, s)
	}
	return true
}

// extendRows appends an empty row. Within capacity it re-extends over the
// row a Reset emptied, keeping that row's backing; every row past the
// length is empty (zero from append's growth, or emptied by Reset).
func extendRows(rs []row) []row {
	if n := len(rs); n < cap(rs) {
		return rs[:n+1]
	}
	return append(rs, row{})
}

// indexSlot records the VertexID -> slot mapping, growing the table to id.
func (g *Graph) indexSlot(id VertexID, s int32) {
	if VertexID(len(g.slot)) <= id {
		grown := append(g.slot, make([]int32, int(id)+1-len(g.slot))...)
		for i := len(g.slot); i < len(grown); i++ {
			grown[i] = -1
		}
		g.slot = grown
	}
	g.slot[id] = s
}

// HasVertex reports whether id is in the graph.
func (g *Graph) HasVertex(id VertexID) bool { return g.slotOf(id) >= 0 }

// VertexKind returns the kind of vertex id, or zero if the vertex is absent.
func (g *Graph) VertexKind(id VertexID) Kind {
	if s := g.slotOf(id); s >= 0 {
		return g.kinds[s]
	}
	return 0
}

// VertexWeight returns the dynamic weight (interaction count) of id, or zero
// if the vertex is absent.
func (g *Graph) VertexWeight(id VertexID) int64 {
	if s := g.slotOf(id); s >= 0 {
		return g.weights[s]
	}
	return 0
}

// AddInteraction records w occurrences of an interaction from vertex `from`
// of kind fromKind to vertex `to` of kind toKind. Missing vertices are
// created. Both endpoint weights and the directed edge weight increase by w.
//
// Self-interactions (from == to) are legal — a contract may call itself —
// and contribute vertex weight but no edge, mirroring how the paper's
// edge-cut metric treats them (a self-loop can never be cut).
func (g *Graph) AddInteraction(from, to VertexID, fromKind, toKind Kind, w int64) error {
	if w <= 0 {
		return fmt.Errorf("graph: interaction weight must be positive, got %d", w)
	}
	if !fromKind.Valid() || !toKind.Valid() {
		return fmt.Errorf("graph: invalid vertex kind (from %v, to %v)", fromKind, toKind)
	}
	if from >= MaxVertexID || to >= MaxVertexID {
		return fmt.Errorf("graph: vertex ID out of range (from %d, to %d; bound %d)", from, to, MaxVertexID)
	}
	g.EnsureVertex(from, fromKind)
	g.EnsureVertex(to, toKind)
	sf := g.slotOf(from)

	g.touchVertex(from, sf, w)
	if from == to {
		return nil
	}
	st := g.slotOf(to)
	g.touchVertex(to, st, w)

	created, oldW, oldTouch := g.out[sf].add(g, to, w)
	if created {
		g.numEdges++
	}
	if g.sched != nil {
		// The canonical (out) copy drives the decay schedule: a
		// fresh touch epoch files a new horizon bucket, and a weight
		// crossing the decay floor joins the heavy list. A created edge was
		// pushed with w directly; an existing one at the floor (weight one,
		// by the heavy invariant the only weight not already listed) grows
		// past it with any positive increment.
		if created || oldTouch != g.epoch {
			g.scheduleEdgeExpiry(from, to)
		}
		if (created && w >= 2) || (!created && oldW == 1) {
			g.sched.heavyE = append(g.sched.heavyE, edgeRef{u: from, v: to})
		}
	}
	g.in[st].add(g, from, w)
	g.totalEdgeWeight += w
	return nil
}

// touchVertex applies one interaction's weight to the vertex in slot s and
// stamps its touch epoch, maintaining the decay schedule: the first
// touch of an epoch re-files the horizon bucket, and a weight leaving the
// decay floor (one) joins the heavy list so the next sweep rescales it.
func (g *Graph) touchVertex(id VertexID, s int32, w int64) {
	oldW := g.weights[s]
	g.weights[s] += w
	g.totalVertWeight += w
	if g.sched != nil {
		if g.touch[s] != g.epoch {
			g.scheduleExpiry(id)
		}
		if oldW == 1 {
			g.sched.heavyV = append(g.sched.heavyV, heavyVertex{s: s, id: id})
		}
	}
	g.touch[s] = g.epoch
}

// VertexCount returns the number of live vertices.
func (g *Graph) VertexCount() int { return len(g.ids) - len(g.free) }

// EdgeCount returns the number of distinct directed edges.
func (g *Graph) EdgeCount() int { return g.numEdges }

// TotalEdgeWeight returns the sum of all directed edge weights.
func (g *Graph) TotalEdgeWeight() int64 { return g.totalEdgeWeight }

// TotalVertexWeight returns the sum of all vertex weights.
func (g *Graph) TotalVertexWeight() int64 { return g.totalVertWeight }

// MaxID returns one past the largest vertex ID the graph has ever seen: every
// vertex ID resolves through a slot table of that length. The CSR builder
// sizes its dense ID->local table with it.
func (g *Graph) MaxID() VertexID { return VertexID(len(g.slot)) }

// Vertices calls fn for every live vertex until fn returns false. Iteration
// follows slot order (insertion order, with retired slots reused in place).
func (g *Graph) Vertices(fn func(id VertexID, kind Kind, weight int64) bool) {
	for s, id := range g.ids {
		if g.kinds[s] == 0 {
			continue // free slot
		}
		if !fn(id, g.kinds[s], g.weights[s]) {
			return
		}
	}
}

// VertexIDs returns all vertex IDs in ascending order. The slice is freshly
// allocated on every call, sized by the live vertex count — collecting from
// the slot records and sorting keeps the call O(peak slots + n log n)
// regardless of how large the historical ID space (MaxID) has grown, where
// a scan of the dense slot table would pay O(IDs ever) after mass
// retirement shrinks the live graph.
func (g *Graph) VertexIDs() []VertexID {
	ids := make([]VertexID, 0, g.VertexCount())
	for s, id := range g.ids {
		if g.kinds[s] == 0 {
			continue // free slot
		}
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// OutNeighbors calls fn for every directed edge leaving u until fn returns
// false.
func (g *Graph) OutNeighbors(u VertexID, fn func(v VertexID, w int64) bool) {
	s := g.slotOf(u)
	if s < 0 {
		return
	}
	r := &g.out[s]
	for i := range r.e {
		if !fn(r.e[i].to, r.e[i].w) {
			return
		}
	}
}

// InNeighbors calls fn for every directed edge entering v until fn returns
// false.
func (g *Graph) InNeighbors(v VertexID, fn func(u VertexID, w int64) bool) {
	s := g.slotOf(v)
	if s < 0 {
		return
	}
	r := &g.in[s]
	for i := range r.e {
		if !fn(r.e[i].to, r.e[i].w) {
			return
		}
	}
}

// Neighbors calls fn once per undirected neighbour of u with the combined
// weight w(u->v)+w(v->u), until fn returns false. This is the adjacency the
// partitioners and the incremental placement rule consume.
func (g *Graph) Neighbors(u VertexID, fn func(v VertexID, w int64) bool) {
	s := g.slotOf(u)
	if s < 0 {
		return
	}
	ro, ri := &g.out[s], &g.in[s]
	for i := range ro.e {
		v, w := ro.e[i].to, ro.e[i].w
		if p := ri.find(v); p >= 0 {
			w += ri.e[p].w
		}
		if !fn(v, w) {
			return
		}
	}
	for i := range ri.e {
		v := ri.e[i].to
		if ro.find(v) >= 0 {
			continue
		}
		if !fn(v, ri.e[i].w) {
			return
		}
	}
}

// Degree returns the number of distinct undirected neighbours of u.
func (g *Graph) Degree(u VertexID) int {
	s := g.slotOf(u)
	if s < 0 {
		return 0
	}
	ro, ri := &g.out[s], &g.in[s]
	n := len(ro.e)
	for i := range ri.e {
		if ro.find(ri.e[i].to) < 0 {
			n++
		}
	}
	return n
}

// EdgeWeight returns the weight of the directed edge u->v, or zero when the
// edge is absent.
func (g *Graph) EdgeWeight(u, v VertexID) int64 {
	s := g.slotOf(u)
	if s < 0 {
		return 0
	}
	r := &g.out[s]
	if p := r.find(v); p >= 0 {
		return r.e[p].w
	}
	return 0
}

// Edges calls fn for every distinct directed edge until fn returns false.
// Iteration follows vertex slot order, then row insertion order.
func (g *Graph) Edges(fn func(u, v VertexID, w int64) bool) {
	for s, u := range g.ids {
		if g.kinds[s] == 0 {
			continue // free slot
		}
		r := &g.out[s]
		for i := range r.e {
			if !fn(u, r.e[i].to, r.e[i].w) {
				return
			}
		}
	}
}

// Reset empties g, as New would, but keeps its storage for the next fill:
// the slot table (wiped through the live IDs, so MaxID keeps its
// high-water mark), the per-slot record slices, every slot's row backing
// and the row-block arena. A graph refilled window after window therefore
// allocates only where a window outgrows the ones before it. A decaying
// graph cannot be reset — its decay schedule has no empty state to return
// to — and Reset panics on one.
func (g *Graph) Reset() {
	if g.sched != nil {
		panic("graph: Reset on a graph built by NewDecaying")
	}
	for _, id := range g.ids {
		g.slot[id] = -1
	}
	// A row's position index is dropped, not cleared: a row at or under
	// rowIndexThreshold has none and is scanned.
	for s := range g.out {
		g.out[s] = row{e: g.out[s].e[:0]}
		g.in[s] = row{e: g.in[s].e[:0]}
	}
	g.ids, g.kinds, g.weights, g.touch = g.ids[:0], g.kinds[:0], g.weights[:0], g.touch[:0]
	g.out, g.in = g.out[:0], g.in[:0]
	g.numEdges, g.totalEdgeWeight, g.totalVertWeight = 0, 0, 0
}
