// Package directory implements the serving layer's account→shard placement
// directory: an epoch-versioned, concurrent map from vertex IDs to shards
// that answers "which shard owns account X?" at high read rates while a
// repartitioner mutates the mapping underneath.
//
// The design is RCU-shaped. All state reachable from a published *Snapshot
// is immutable; readers load the current snapshot with one atomic pointer
// read and then perform any number of lookups against a frozen, consistent
// view — no locks, no retries, no torn reads. Writers serialise on a mutex,
// build the next snapshot by copying only what they touch, and publish it
// with one atomic store. A repartition's whole move set commits as a single
// epoch flip: no reader can ever observe half a wave.
//
// Storage is two-tiered, and both tiers are the same thing — a
// VertexID-indexed table of fixed-size pages covering the IDs below
// graph.MaxVertexID, each page a node of pointers to copy-on-write leaves:
//
//   - the hot tier holds the live account population that placement and
//     repartitioning actually touch;
//   - the cold tier holds the sticky assignments of retired accounts.
//     Retirement moves a slot from a hot page to the cold page of the same
//     index, re-hydration moves it back; a page either move empties is
//     dropped, so the hot tier's footprint follows the live set instead of
//     the full history (the directory's absorption of the "horizon-aware
//     assignment compaction" roadmap item) and the cold tier's follows what
//     is actually retired. A commit copies only the page nodes and leaves
//     it writes, in either tier: its cost does not grow with how much was
//     ever retired.
//
// A lookup is a bounds check and at most two probes of a page node and a
// leaf. A batch that maps an ID at or above graph.MaxVertexID is refused.
//
// A bounded journal retains the last JournalDepth snapshots by epoch, so a
// reader that pinned epoch E mid-flight can re-acquire exactly that view
// (AtEpoch) for as long as the journal keeps it.
package directory

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"ethpart/internal/graph"
	"ethpart/internal/slab"
)

// NoShard is returned (with ok == false) for vertices the directory has
// never seen.
const NoShard = -1

// noShard is the unoccupied-entry sentinel inside leaves.
const noShard int16 = -1

// maxShards is the largest shard count a batch may declare: a leaf slot is
// an int16, so shards 0..math.MaxInt16 fit, and CommitBatch refuses any
// other shard rather than narrow it.
const maxShards = math.MaxInt16 + 1

const (
	// pageBits sizes the unit of both tiers' page tables: a page covers
	// 1<<pageBits IDs, so the page table stays tiny (one pointer per 1024
	// accounts), and a page is what empty-page compaction drops.
	pageBits = 10
	pageSize = 1 << pageBits

	// leafBits sizes the unit of copy-on-write inside a page: a leaf is
	// 1<<leafBits int16 slots (128 B), and a page node is the 16 pointers
	// to its leaves (128 B). A commit copies the page nodes and leaves it
	// writes, not the 4 KiB of slots a page covers.
	leafBits      = 6
	leafSize      = 1 << leafBits
	leafMask      = leafSize - 1
	leavesPerPage = pageSize / leafSize

	// nodeChunk and leafChunk are how many page nodes and leaves one
	// allocation holds: a commit allocates fewer objects than it copies,
	// and a chunk stays live while any of its members is, so the chunks are
	// small: 1 KiB each. Page nodes and leaves never share an allocation:
	// a live leaf pins only its leaf chunk, which holds no pointers
	// (DESIGN §5).
	nodeChunk = 8
	leafChunk = 8

	// tableChunk is how many page tables of one length a tier's table slab
	// holds, and snapChunk how many snapshots the writer's snapshot slab
	// holds: a one-move commit allocates a share of each, not an object of
	// each. A pinned snapshot keeps its chunk-mates alive, and through them
	// their tables' chunk-mates — a bounded neighbourhood of epochs, about
	// what the default journal already retains (DESIGN §5).
	tableChunk = 8
	snapChunk  = 16
)

// leaf is one fixed-size block of slots. Leaves reachable from a published
// snapshot are immutable; a writer copies a leaf before its first write of
// a commit.
type leaf [leafSize]int16

// page is one page node: the leaves of 1<<pageBits IDs, a nil leaf being
// wholly unoccupied. Page nodes reachable from a published snapshot are
// immutable too.
type page [leavesPerPage]*leaf

// table is one tier as a snapshot sees it: the page table of a paged dense
// VertexID→shard array. A nil entry is a wholly unoccupied (never written,
// or emptied and dropped) page.
type table []*page

// get returns v's slot, noShard when it is unoccupied or beyond the table.
func (t table) get(v graph.VertexID) int16 {
	if p := int(v >> pageBits); p < len(t) {
		if pg := t[p]; pg != nil {
			if lf := pg[(v>>leafBits)%leavesPerPage]; lf != nil {
				return lf[v&leafMask]
			}
		}
	}
	return noShard
}

// allocated returns the number of non-nil pages.
func (t table) allocated() int {
	n := 0
	for _, pg := range t {
		if pg != nil {
			n++
		}
	}
	return n
}

// each calls fn for every occupied slot in ascending ID order and reports
// whether fn let it run to the end.
func (t table) each(fn func(v graph.VertexID, shard int) bool) bool {
	for p, pg := range t {
		if pg == nil {
			continue
		}
		for l, lf := range pg {
			if lf == nil {
				continue
			}
			base := graph.VertexID(p)<<pageBits + graph.VertexID(l)<<leafBits
			for i, sh := range lf {
				if sh != noShard && !fn(base+graph.VertexID(i), int(sh)) {
					return false
				}
			}
		}
	}
	return true
}

// cowTable is the writer's side of one tier (guarded by Directory.mu): the
// page table of the latest published snapshot — or, inside a commit, of the
// one being built — plus the bookkeeping that makes writes copy-on-write.
// Every mutator takes the epoch being built; a page node, leaf or page
// table stamped with that epoch is already private to the commit and is
// written in place, anything else is copied first and stamped. commit
// validates a batch before its first write, so no commit fails half-way and
// pages is always the current view's table between commits.
type cowTable struct {
	pages table
	// live counts occupied slots per page, so a page that empties is dropped.
	live []int32
	// copied[p] is the epoch whose commit last copied page node p,
	// leafCopied[l] the same for leaf l (global index v>>leafBits), and
	// tableCopied for the page table. Zero (never an epoch under
	// construction) means "shared with a published snapshot". A page node
	// created where there was none starts with nil leaves, so it resets its
	// leaves' stamps: one copied earlier in the same commit, before the page
	// emptied and was dropped, is not in the new node.
	copied      []uint64
	leafCopied  []uint64
	tableCopied uint64
	// nodes, leaves and tables carve the commit's copies.
	nodes  slab.Chunks[page]
	leaves slab.Chunks[leaf]
	tables slab.Chunks[*page]
}

// ownTable makes the page table private to the commit building epoch e and
// at least n pages long.
func (t *cowTable) ownTable(e uint64, n int) {
	if t.tableCopied != e || len(t.pages) < n {
		size := max(n, len(t.pages))
		grown := t.tables.Lane(size, tableChunk*size)
		copy(grown, t.pages)
		t.pages = grown
		t.tableCopied = e
	}
	if grow := len(t.pages) - len(t.live); grow > 0 {
		t.live = append(t.live, make([]int32, grow)...)
		t.copied = append(t.copied, make([]uint64, grow)...)
		t.leafCopied = append(t.leafCopied, make([]uint64, grow*leavesPerPage)...)
	}
}

// own returns page node p, private to the commit building epoch e.
func (t *cowTable) own(e uint64, p int) *page {
	t.ownTable(e, p+1)
	if t.copied[p] == e {
		return t.pages[p]
	}
	np := t.nodes.One(nodeChunk)
	if old := t.pages[p]; old != nil {
		*np = *old
	} else {
		clear(t.leafCopied[p*leavesPerPage : (p+1)*leavesPerPage])
	}
	t.pages[p] = np
	t.copied[p] = e
	return np
}

// slot returns v's slot in a leaf private to the commit building epoch e.
func (t *cowTable) slot(e uint64, v graph.VertexID) *int16 {
	pg := t.own(e, int(v>>pageBits))
	l := int(v >> leafBits)
	lf := &pg[l%leavesPerPage]
	if t.leafCopied[l] != e {
		nl := t.leaves.One(leafChunk)
		if *lf != nil {
			*nl = **lf
		} else {
			for i := range nl {
				nl[i] = noShard
			}
		}
		*lf = nl
		t.leafCopied[l] = e
	}
	return &(*lf)[v&leafMask]
}

// put writes v's slot and reports whether the slot was unoccupied.
func (t *cowTable) put(e uint64, v graph.VertexID, shard int16) (added bool) {
	s := t.slot(e, v)
	added = *s == noShard
	if added {
		t.live[v>>pageBits]++
	}
	*s = shard
	return added
}

// clear empties v's slot, which must be occupied. Emptying a page's last
// slot drops the page instead, so a tier's footprint tracks what it holds
// (compaction).
func (t *cowTable) clear(e uint64, v graph.VertexID) {
	p := int(v >> pageBits)
	t.live[p]--
	if t.live[p] > 0 {
		*t.slot(e, v) = noShard
		return
	}
	t.ownTable(e, p+1)
	t.pages[p] = nil
	t.copied[p] = 0
}

// Snapshot is one immutable, internally consistent version of the
// directory. Any number of goroutines may share a Snapshot; it never
// changes after publication, so a reader holding one sees a single epoch's
// view across arbitrarily many lookups.
type Snapshot struct {
	epoch uint64
	// shards is the shard count this view was published under; zero until
	// a batch carries one. Riding inside the snapshot makes the count
	// epoch-consistent with the placements: a reader resolving homes
	// against a pinned view can never pair an old k with a new mapping (or
	// vice versa), however many resizes the writer commits meanwhile.
	shards int
	// hot and cold are the two tiers, one paged table each: live placements
	// and retired sticky assignments. They are disjoint — a vertex occupies
	// a slot in at most one.
	hot, cold table
	// hotLen and entries count occupied hot-tier slots and total mapped
	// vertices (hot + cold).
	hotLen, entries int
}

// Epoch returns the snapshot's version number. Epochs start at zero (the
// empty directory) and increase by one per commit.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Len returns the number of mapped vertices in this view.
func (s *Snapshot) Len() int { return s.entries }

// HotLen returns the number of hot-tier entries in this view.
func (s *Snapshot) HotLen() int { return s.hotLen }

// Lookup returns the shard of v in this view: a bounds check and at most
// two probes of a page node and a leaf, hot tier first.
func (s *Snapshot) Lookup(v graph.VertexID) (int, bool) {
	shard, _, ok := s.LookupTier(v)
	return shard, ok
}

// LookupTier is Lookup plus tier information: cold reports whether the
// answer came from the cold tier. The serving front end uses it to emit
// promotion hints for hot-again accounts without taking any lock.
func (s *Snapshot) LookupTier(v graph.VertexID) (shard int, cold, ok bool) {
	if sh := s.hot.get(v); sh != noShard {
		return int(sh), false, true
	}
	if sh := s.cold.get(v); sh != noShard {
		return int(sh), true, true
	}
	return NoShard, false, false
}

// Each calls fn for every mapped vertex of the view: the hot tier in
// ascending ID order, then the cold tier likewise. Stops early when fn
// returns false.
func (s *Snapshot) Each(fn func(v graph.VertexID, shard int) bool) {
	if s.hot.each(fn) {
		s.cold.each(fn)
	}
}

// Move is one mapping update: vertex V is owned by shard To.
type Move struct {
	V  graph.VertexID
	To int
}

// Batch is the unit of atomicity: everything in one Batch becomes visible
// together, as a single epoch flip.
//
// Set entries update the mapping wherever the vertex currently lives: a
// new vertex joins the hot tier, an existing hot entry is overwritten in
// place, and a cold (retired) entry is promoted back into the hot tier —
// a repartition moving a sticky assignment re-hydrates it. SetCold entries
// update the mapping *without* changing tiers: hot stays hot, cold stays
// cold, unknown vertices join the cold tier — the shape of a merge wave
// remapping retired sticky assignments off a decommissioned shard, which
// must not re-hydrate dead history into the hot tier. Retire entries spill
// the vertex's current hot mapping into the cold tier (no-ops for vertices
// already cold or never seen). Promote entries re-hydrate cold entries
// back into the hot tier at their current shard — the promotion-on-access
// lane fed by the read-side hint ring; a promotion never changes a
// lookup's answer and is a no-op for hot, unknown, or out-of-range
// vertices, so duplicated or stale hints are harmless. CommitBatch refuses a
// batch whose Set or SetCold names an ID at or above graph.MaxVertexID.
//
// Shards, when positive, declares the shard count the batch's mappings are
// expressed against; it becomes the snapshot's epoch-consistent Shards().
// Zero inherits the current count. A batch both resizing and remapping is
// exactly one epoch flip — the directory's no-k/placement-tear guarantee —
// and CommitBatch rejects any batch that would publish a view with a
// mapping at or above its own shard count.
type Batch struct {
	Set     []Move
	SetCold []Move
	Retire  []graph.VertexID
	Promote []graph.VertexID
	Shards  int
}

// Config parameterises a Directory.
type Config struct {
	// JournalDepth is how many recent snapshots stay reachable by epoch
	// through AtEpoch. Zero means the default of 16. The journal bounds
	// how long an in-flight reader can lag the writer and still re-pin
	// its epoch; snapshots older than the journal are garbage once the
	// last reader drops them.
	JournalDepth int
}

// Directory is the concurrent placement directory. Lookups and epoch pins
// (Current/AtEpoch/PinEpoch/Resolve) are lock-free and safe from any number
// of goroutines; CommitBatch serialises internally, so multiple writers are
// safe too (though the intended shape is one publisher).
type Directory struct {
	mu   sync.Mutex
	view atomic.Pointer[Snapshot]

	// journal is the ring of recent snapshots. Epochs advance by exactly
	// one per commit from epoch 0 in slot 0, so epoch e can only ever live
	// in slot e % len(journal): a pin is one load and an epoch compare.
	journal []atomic.Pointer[Snapshot]

	// Writer-owned state, guarded by mu: the two tiers' copy-on-write
	// bookkeeping, and the carver of snapshots.
	hot, cold cowTable
	snaps     slab.Chunks[Snapshot]

	// Cumulative writer-side counters (guarded by mu).
	waveFlips, promoted uint64
}

// New returns an empty directory at epoch zero.
func New(cfg Config) *Directory {
	if cfg.JournalDepth <= 0 {
		cfg.JournalDepth = 16
	}
	d := &Directory{journal: make([]atomic.Pointer[Snapshot], cfg.JournalDepth)}
	root := &Snapshot{}
	d.view.Store(root)
	d.journal[0].Store(root)
	return d
}

// Current returns the latest published snapshot. The returned view is
// immutable; hold it for as many lookups as need to be mutually
// consistent, then drop it.
func (d *Directory) Current() *Snapshot { return d.view.Load() }

// Epoch returns the latest published epoch.
func (d *Directory) Epoch() uint64 { return d.view.Load().epoch }

// AtEpoch returns the journaled snapshot for epoch e, if the bounded
// journal still retains it.
func (d *Directory) AtEpoch(e uint64) (*Snapshot, bool) {
	if s := d.journal[e%uint64(len(d.journal))].Load(); s != nil && s.epoch == e {
		return s, true
	}
	return nil, false
}

// ErrEpochEvicted reports that a requested epoch has aged out of the
// bounded journal (or was never published). Errors returned by PinEpoch
// match it with errors.Is.
var ErrEpochEvicted = errors.New("directory: epoch evicted from journal")

// PinEpoch returns the journaled snapshot for epoch e, or an error wrapping
// ErrEpochEvicted that names the epoch and the range the journal still
// retains — the typed form of the AtEpoch miss.
func (d *Directory) PinEpoch(e uint64) (*Snapshot, error) {
	if s, ok := d.AtEpoch(e); ok {
		return s, nil
	}
	newest := d.Epoch()
	oldest := newest - min(newest, uint64(len(d.journal))-1)
	return nil, fmt.Errorf("%w: epoch %d (journal retains %d..%d)",
		ErrEpochEvicted, e, oldest, newest)
}

// Resolve returns the best available view for a reader that pinned epoch e:
// the exact journaled snapshot when the journal retains it, otherwise the
// newest published view with stale == true. It replaces the hand-rolled
// "AtEpoch, else Current" dance: an evicted (or not-yet-published) epoch
// degrades to a bounded-staleness read instead of an error, and the flag
// tells the caller to re-pin against the view it actually got.
func (d *Directory) Resolve(e uint64) (s *Snapshot, stale bool) {
	if s, ok := d.AtEpoch(e); ok {
		return s, false
	}
	return d.Current(), true
}

// Committer is the surface a Publisher commits through: the Directory
// itself, or a wrapper that injects faults or replication between the
// publisher and the directory. wave marks a repartition's epoch flip (the
// whole move set of one repartition as a single batch), so wrappers can
// treat flips differently from per-record placement flushes; the Directory
// counts it (Stats.WaveFlips) but applies both kinds identically.
type Committer interface {
	CommitBatch(b Batch, wave bool) (uint64, error)
}

// CommitBatch implements Committer: it atomically publishes one batch and
// returns the new epoch. An empty batch still flips the epoch (callers that
// want "no change, no flip" should skip the call — the Publisher does).
// Wave commits are tallied separately in Stats.WaveFlips, so reports can
// split repartition flips from loose placement flushes.
func (d *Directory) CommitBatch(b Batch, wave bool) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()

	// Validate the whole batch before touching any writer state: a
	// mid-batch rejection after mutating d.hot or d.cold would leave their
	// page tables and occupancy counts ahead of the (discarded) snapshot —
	// the rejected writes would surface in the next commit, and page-drop
	// compaction would never fire for the affected pages.
	cur := d.view.Load()
	if b.Shards < 0 || b.Shards > maxShards {
		return 0, fmt.Errorf("directory: shard count %d out of range [0,%d]", b.Shards, maxShards)
	}
	shards := cur.shards
	if b.Shards > 0 {
		shards = b.Shards
	}
	for _, m := range b.Set {
		if err := checkMove("set", m, shards); err != nil {
			return 0, err
		}
	}
	for _, m := range b.SetCold {
		if err := checkMove("set-cold", m, shards); err != nil {
			return 0, err
		}
	}
	if b.Shards > 0 && cur.shards > 0 && b.Shards < cur.shards {
		// Shrinking: every existing mapping at or above the new count must
		// be remapped below it by this very batch, or the flip would
		// publish a k/placement tear. The scan runs against the current
		// (immutable) view before anything mutates, so a rejection leaves
		// the writer state untouched. Resizes are rare; O(entries) here
		// buys an invariant every reader can rely on.
		remap := make(map[graph.VertexID]int, len(b.Set)+len(b.SetCold))
		for _, m := range b.Set {
			remap[m.V] = m.To
		}
		for _, m := range b.SetCold {
			remap[m.V] = m.To
		}
		var tearErr error
		cur.Each(func(v graph.VertexID, shard int) bool {
			if shard < b.Shards {
				return true
			}
			if to, ok := remap[v]; !ok || to >= b.Shards {
				tearErr = fmt.Errorf("directory: shrink to %d shards would orphan %d on shard %d",
					b.Shards, v, shard)
				return false
			}
			return true
		})
		if tearErr != nil {
			return 0, tearErr
		}
	}

	next := d.snaps.One(snapChunk)
	*next = Snapshot{
		epoch:   cur.epoch + 1,
		shards:  shards,
		hotLen:  cur.hotLen,
		entries: cur.entries,
	}
	e := next.epoch

	for _, m := range b.Set {
		if d.hot.put(e, m.V, int16(m.To)) {
			// Hot miss: a cold entry re-hydrating — clear the cold slot so
			// the tiers stay disjoint — or a brand new vertex.
			next.hotLen++
			if d.cold.pages.get(m.V) != noShard {
				d.cold.clear(e, m.V)
			} else {
				next.entries++
			}
		}
	}

	for _, m := range b.SetCold {
		// In-place, tier-preserving update: hot entries change in their
		// leaf, everything else lands (or stays) in the cold tier.
		if d.hot.pages.get(m.V) != noShard {
			d.hot.put(e, m.V, int16(m.To))
		} else if d.cold.put(e, m.V, int16(m.To)) {
			next.entries++
		}
	}

	for _, v := range b.Promote {
		// Promotion-on-access: move a cold entry back to the hot tier at
		// its current shard. Mapping, Len and every Lookup answer are
		// unchanged — only the tier moves — so replicas applying the same
		// stream converge on the same mapping regardless of hint timing.
		sh := d.cold.pages.get(v)
		if sh == noShard {
			continue // already hot, never seen or out of range: stale hint, no-op
		}
		d.hot.put(e, v, sh)
		d.cold.clear(e, v)
		next.hotLen++
		d.promoted++
	}

	for _, v := range b.Retire {
		sh := d.hot.pages.get(v)
		if sh == noShard {
			continue // unknown (or out of range) or already retired
		}
		d.cold.put(e, v, sh)
		d.hot.clear(e, v)
		next.hotLen--
	}

	next.hot, next.cold = d.hot.pages, d.cold.pages
	if wave {
		d.waveFlips++
	}
	d.journal[e%uint64(len(d.journal))].Store(next)
	d.view.Store(next)
	return e, nil
}

// checkMove validates one mapping of a batch's lane against the shard count
// the batch publishes.
func checkMove(lane string, m Move, shards int) error {
	switch {
	case m.V >= graph.MaxVertexID:
		return fmt.Errorf("directory: %s %d: vertex out of range [0,%d)", lane, m.V, graph.MaxVertexID)
	case m.To < 0:
		return fmt.Errorf("directory: %s %d: negative shard %d", lane, m.V, m.To)
	case m.To >= maxShards:
		return fmt.Errorf("directory: %s %d: shard %d does not fit a slot [0,%d)", lane, m.V, m.To, maxShards)
	case shards > 0 && m.To >= shards:
		return fmt.Errorf("directory: %s %d: shard %d out of range [0,%d)", lane, m.V, m.To, shards)
	}
	return nil
}

// Stats is a point-in-time summary of the directory for reporting.
type Stats struct {
	Epoch     uint64
	Entries   int
	Hot, Cold int
	Pages     int // allocated (non-nil) hot pages in the current view
	// WaveFlips counts the commits marked as repartition waves through the
	// Committer seam; every commit flips one epoch, so Epoch - WaveFlips
	// are loose placement flushes.
	WaveFlips uint64
	// Promoted counts cold entries re-hydrated through the Promote lane
	// (promotion-on-access).
	Promoted uint64
}

// Stats returns current counters.
func (d *Directory) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.view.Load()
	return Stats{
		Epoch: s.epoch, Entries: s.entries, Hot: s.hotLen,
		Cold: s.entries - s.hotLen, Pages: s.hot.allocated(),
		WaveFlips: d.waveFlips, Promoted: d.promoted,
	}
}
