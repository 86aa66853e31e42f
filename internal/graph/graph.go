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
// table instead of hash maps. Adjacency rows are append-only runs of half
// edges held in graph-owned blocks of doubling size classes: a full row
// moves up one class and gives its old block back for the next row to
// reuse, as does a retired vertex, so row growth allocates only when a
// class runs out of blocks. Rows that grow past a threshold (hub
// contracts) gain a flat open-addressing position table so edge lookups
// stay O(1) without paying a table per vertex. Reset empties a graph but
// keeps that storage, so a window graph rebuilt at every repartition wave
// grows it once instead of at every wave.
package graph

import (
	"fmt"
	"math/bits"
	"slices"

	"ethpart/internal/slab"
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

// rowIndexThreshold is the row length beyond which a row keeps a position
// table. Small rows (the vast majority) use a linear scan over a
// contiguous slice, which beats hashing well past a dozen entries; a hub
// row's table answers a lookup with a hash and a probe or two however long
// the row is. The table is a flat []int32, not a Go map: a decay sweep
// that compacts a hub row rebuilds its table, and clearing and refilling a
// slice of positions costs a fraction of re-inserting every key into a map.
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
// order and, once the row grows past rowIndexThreshold, a position table.
//
// The table is open addressing over e, keyed through e[p-1].to: a power of
// two of slots, each holding a position in e plus one (0 is an empty
// slot), probed linearly from a multiplicative hash of the neighbour. An
// insert that would fill more than half of it rebuilds it twice as large,
// so a probe always ends at an empty slot; a rebuild after compaction
// keeps the size while the survivors fill between ⅛ and ½ of it (reindex).
// len(idx) is 0 exactly while the row is at or under the threshold; the
// capacity outlives that, so a row that falls back under it (compact) or
// is emptied (Graph.Reset) refills the same table when it grows again.
type row struct {
	e   []halfEdge
	idx []int32
}

// probeStart is v's first slot in a table of mask+1 slots.
func probeStart(v VertexID, mask uint32) uint32 {
	return uint32(uint64(v)*0x9e3779b97f4a7c15>>32) & mask
}

// find returns the position of v in the row, or -1.
func (r *row) find(v VertexID) int32 {
	if len(r.idx) != 0 {
		mask := uint32(len(r.idx) - 1)
		for i := probeStart(v, mask); ; i = (i + 1) & mask {
			p := r.idx[i]
			if p == 0 {
				return -1
			}
			if r.e[p-1].to == v {
				return p - 1
			}
		}
	}
	for i := range r.e {
		if r.e[i].to == v {
			return int32(i)
		}
	}
	return -1
}

// place files entry p in the table, which has a free slot for it.
func (r *row) place(p int) {
	mask := uint32(len(r.idx) - 1)
	i := probeStart(r.e[p].to, mask)
	for r.idx[i] != 0 {
		i = (i + 1) & mask
	}
	r.idx[i] = int32(p + 1)
}

// reindex rebuilds the table for the row's entries, in row order: emptied
// at or under rowIndexThreshold; otherwise refilled at its size while the
// entries keep its load between ⅛ and ½, else resized to the smallest power
// of two above 2n (a load in [¼, ½)), on the capacity it has when that
// suffices.
func (r *row) reindex() {
	n := len(r.e)
	if n <= rowIndexThreshold {
		r.idx = r.idx[:0]
		return
	}
	size := len(r.idx)
	if 2*n > size || 8*n < size {
		size = 1 << bits.Len(uint(2*n))
	}
	if size <= cap(r.idx) {
		r.idx = r.idx[:size]
		clear(r.idx)
	} else {
		r.idx = make([]int32, size)
	}
	for p := range r.e {
		r.place(p)
	}
}

// add accumulates weight w onto the edge to v, creating the entry if it is
// new. It reports whether the entry was created and, for existing entries,
// the weight and touch epoch it had before this call (zero for created
// ones) — a decaying graph uses them to decide whether the edge needs a
// new horizon bucket or a heavy-list entry. A full row first moves into a
// block of the next size class (growRow).
func (r *row) add(g *Graph, v VertexID, w int64) (created bool, oldW int64, oldTouch uint32) {
	if p := r.find(v); p >= 0 {
		oldW, oldTouch = r.e[p].w, r.e[p].touch
		r.e[p].w += w
		r.e[p].touch = g.epoch
		return false, oldW, oldTouch
	}
	r.insert(g, v, w)
	return true, 0, 0
}

// insert appends a new entry for v, which the row must not hold, with
// weight w.
func (r *row) insert(g *Graph, v VertexID, w int64) {
	if len(r.e) == cap(r.e) {
		r.e = g.growRow(r.e)
	}
	r.e = append(r.e, halfEdge{to: v, w: w, touch: g.epoch})
	if n := len(r.e); 2*n <= len(r.idx) {
		r.place(n - 1)
	} else if n > rowIndexThreshold {
		r.reindex()
	}
}

// compact removes the tombstoned entries (weight zero, set by the decay
// sweep) in one pass, preserving the order of the survivors (iteration
// order is observable through Neighbors and Edges), then rebuilds the
// table once to match.
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
	r.reindex()
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

	// blocks holds the adjacency rows' storage, one size class per entry.
	// A row lives in one block of some class; it starts in class 0, a full
	// row moves into a block of the next class up, and the block it leaves
	// (or a retired vertex's) joins its class's free list. A block is
	// either on exactly one free list or the backing of exactly one row.
	blocks [rowClasses]rowClass

	numEdges        int   // number of distinct directed (u,v) pairs
	totalEdgeWeight int64 // sum of all directed edge weights
}

// Row block geometry. Class c holds blocks of rowBlockCap<<c half edges,
// carved rowChunk half edges at a time (one block per chunk once a block
// is that large). A row that outgrows the top class (16,384 entries: hub
// rows only) leaves the classes and grows by plain append from then on.
const (
	rowBlockCap = 4
	rowClasses  = 13
	rowChunk    = 4096
)

// rowClass is one block size class: the carver of its new blocks and the
// blocks rows gave back, reused last in, first out.
type rowClass struct {
	chunks slab.Chunks[halfEdge]
	free   [][]halfEdge
}

// blockClass returns the size class of a row backing of capacity n, or -1
// for one outside the classes (no backing yet, or grown past the top).
func blockClass(n int) int {
	if n == 0 || n > rowBlockCap<<(rowClasses-1) {
		return -1
	}
	return bits.Len(uint(n/rowBlockCap)) - 1
}

// takeBlock returns an empty block of class c: the last one given back,
// else a fresh one carved for the class.
func (g *Graph) takeBlock(c int) []halfEdge {
	k := &g.blocks[c]
	if n := len(k.free); n > 0 {
		b := k.free[n-1]
		k.free = k.free[:n-1]
		return b[:0]
	}
	return k.chunks.Lane(rowBlockCap<<c, rowChunk)[:0]
}

// giveBlock puts a row's backing on its class's free list. The caller
// drops the row's reference in the same step. A backing outside the
// classes is left to the collector.
func (g *Graph) giveBlock(b []halfEdge) {
	if c := blockClass(cap(b)); c >= 0 {
		g.blocks[c].free = append(g.blocks[c].free, b)
	}
}

// growRow returns the backing a full row e moves into, its entries copied
// in order: a class-0 block for a row with no backing, a block of the next
// class up otherwise, with e's block given back. A full top-class row
// moves into a slice of twice its size, and a row past the top class is
// returned as it is, for append to grow.
func (g *Graph) growRow(e []halfEdge) []halfEdge {
	var next []halfEdge
	switch c := blockClass(cap(e)); {
	case cap(e) == 0:
		return g.takeBlock(0)
	case c < 0:
		return e
	case c+1 < rowClasses:
		next = g.takeBlock(c + 1)
	default:
		next = make([]halfEdge, 0, 2*cap(e))
	}
	next = append(next, e...)
	g.giveBlock(e)
	return next
}

// New returns an empty graph that never decays; see NewDecaying.
func New() *Graph {
	return &Graph{}
}

// Grow makes room for n more vertices, like slices.Grow: the next n
// vertices added, with IDs below MaxID()+n, extend the per-vertex records
// and the ID table without reallocating either; their adjacency rows still
// take blocks as they fill. A caller that knows how many vertices the graph
// will end with — a full-history replay knows its registry — sizes it once
// instead of doubling its way there, copying every record at each step and
// leaving the old copies to the collector. Grow changes nothing a reader
// can see.
func (g *Graph) Grow(n int) {
	if n <= 0 {
		return
	}
	g.slot = slices.Grow(g.slot, n)
	g.ids = slices.Grow(g.ids, n)
	g.kinds = slices.Grow(g.kinds, n)
	g.weights = slices.Grow(g.weights, n)
	g.touch = slices.Grow(g.touch, n)
	// Rows past the length stay as Reset left them (extendRows).
	g.out = slices.Grow(g.out, n)
	g.in = slices.Grow(g.in, n)
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
	// The rows mirror each other, so an edge new to out[from] is new to
	// in[to] too and needs no search there.
	if created {
		g.in[st].insert(g, from, w)
	} else {
		g.in[st].add(g, from, w)
	}
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

// MaxID returns one past the largest vertex ID the graph has ever seen: every
// vertex ID resolves through a slot table of that length. The CSR builder
// sizes its dense ID->local table with it.
func (g *Graph) MaxID() VertexID { return VertexID(len(g.slot)) }

// Vertices calls fn for every live vertex until fn returns false. Iteration
// follows slot order (insertion order, with retired slots reused in place).
// fn must not modify g.
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
// false. fn must not modify g: a row that grows gives its block back for
// reuse while the loop still reads it.
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
// false. fn must not modify g (see OutNeighbors).
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
// partitioners and the incremental placement rule consume. fn must not
// modify g (see OutNeighbors).
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

// Edges calls fn for every distinct directed edge until fn returns false.
// Iteration follows vertex slot order, then row insertion order. fn must
// not modify g (see OutNeighbors).
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
// high-water mark), the per-slot record slices, every slot's row block and
// position table, and the block classes' free lists and chunks. A graph
// refilled window after window therefore allocates only where a window
// outgrows the ones before it. A decaying graph cannot be reset — its decay schedule has no
// empty state to return to — and Reset panics on one.
func (g *Graph) Reset() {
	if g.sched != nil {
		panic("graph: Reset on a graph built by NewDecaying")
	}
	for _, id := range g.ids {
		g.slot[id] = -1
	}
	// Each row keeps its block and its table's capacity for whichever
	// vertex fills the slot next.
	for s := range g.out {
		g.out[s] = row{e: g.out[s].e[:0], idx: g.out[s].idx[:0]}
		g.in[s] = row{e: g.in[s].e[:0], idx: g.in[s].idx[:0]}
	}
	g.ids, g.kinds, g.weights, g.touch = g.ids[:0], g.kinds[:0], g.weights[:0], g.touch[:0]
	g.out, g.in = g.out[:0], g.in[:0]
	g.numEdges, g.totalEdgeWeight = 0, 0
}
