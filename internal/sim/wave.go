// The repartition wave (DESIGN.md §3): the one path every assignment
// change after first-sight placement takes — periodic and threshold
// repartitions at the current k, autoscaler splits, merge drains and
// re-hashes alike. A wave picks its source, plans a target shard per source
// vertex, applies the plan one moveVertex at a time, and closes with one
// shared epilogue; nothing else in the package moves a vertex.

package sim

import (
	"fmt"
	"time"

	"ethpart/internal/graph"
)

// wave runs one repartition wave at window boundary now, taking the shard
// count from s.cfg.K to newK (equal for a plain repartition), and fires
// OnRepartition or OnResize after the wave's last OnMove.
func (s *Simulator) wave(now time.Time, newK int) error {
	oldK := s.cfg.K
	fail := func(err error) error {
		return fmt.Errorf("sim: wave %d -> %d shards: %w", oldK, newK, err)
	}
	if newK > oldK {
		// A split's new shards must exist before anything can move onto
		// them. Retired vertices keep their sticky assignments, all of
		// which stay valid after a grow.
		if err := s.setK(newK); err != nil {
			return fail(err)
		}
	}
	ids, parts, err := s.plan(now, oldK, newK)
	if err != nil {
		return fail(err)
	}

	// recv[(from-newK)*newK+to] counts the vertices dropped shard `from`
	// handed to survivor `to` (merges only), to fold served load below.
	var recv []int64
	if newK < oldK {
		recv = make([]int64, (oldK-newK)*newK)
	}
	var moves int
	for i, v := range ids {
		from, ok := s.assign.ShardOf(v)
		if !ok {
			// Every source vertex was placed on first sight, and assignments
			// are sticky through retirement.
			return fail(fmt.Errorf("source vertex %d has no shard", v))
		}
		if from == parts[i] {
			continue
		}
		if err := s.moveVertex(v, from, parts[i]); err != nil {
			return fail(err)
		}
		moves++
		if from >= newK {
			recv[(from-newK)*newK+parts[i]]++
		}
	}

	if newK < oldK {
		// Fold each dropped shard's whole-run served load into the survivor
		// that absorbed most of its vertices (lowest index on ties), so
		// OverallDynamicBalance keeps accounting every interaction ever
		// served. Only once every dropped shard is empty does k shrink, so
		// the partition layer's no-orphan check holds by construction.
		for from := newK; from < oldK; from++ {
			row := recv[(from-newK)*newK:][:newK]
			best := 0
			for t := 1; t < newK; t++ {
				if row[t] > row[best] {
					best = t
				}
			}
			s.runLoad[best] += s.runLoad[from]
		}
		if err := s.setK(newK); err != nil {
			return fail(err)
		}
	}

	// Every wave resets the window graph and advances the wave clock the
	// repartition policy and the autoscaler's cooldown share.
	s.clk.lastWave = now
	if s.window != nil {
		s.window.Reset()
	}
	s.winReparted = true
	s.winMoves += int64(moves)
	s.result.TotalMoves += int64(moves)
	if newK == oldK {
		s.result.Repartitions++
		if s.cfg.OnRepartition != nil {
			s.cfg.OnRepartition(now, moves)
		}
		return nil
	}
	// Defaulted TR-METIS thresholds were derived from k; re-derive them at
	// the new k (caller-pinned values stay pinned) and discard the trigger
	// evidence gathered at the old one.
	if s.cutDefaulted {
		s.cfg.CutThreshold = defaultCutThreshold(newK)
	}
	if s.balDefaulted {
		s.cfg.BalanceThreshold = defaultBalanceThreshold(newK)
	}
	s.badWindows = 0
	s.result.Resizes = append(s.result.Resizes, ResizeEvent{At: now, FromK: oldK, ToK: newK, Moves: moves})
	if s.cfg.OnResize != nil {
		s.cfg.OnResize(now, oldK, newK, moves)
	}
	return nil
}

// plan is the wave's source → partition half: the vertices the wave may
// move, in the order it will move them, and a target shard in [0,newK) for
// each.
//
//	wave                    source                        partitioner
//	repartition (k → k)     the policy's source graph     KL refine, or multilevel at k
//	resize, hash placement  every assigned vertex         hash at the new modulus
//	merge (k → k' < k)      vertices on dropped shards    least-filled survivor
//	split (k → k' > k)      the (decayed) live graph      multilevel at k'
//
// Under NewOver's lookahead every wave is a repartition whose plan was
// computed ahead from the records alone; plan takes it instead.
func (s *Simulator) plan(now time.Time, oldK, newK int) (ids []graph.VertexID, parts []int, err error) {
	resize := newK != oldK
	switch {
	case s.ahead != nil:
		ids, parts, err = s.ahead.next(now)
		if err == nil && s.policy.source == sourceFull && len(ids) != s.full.VertexCount() {
			err = fmt.Errorf("lookahead planned %d vertices of a %d-vertex graph", len(ids), s.full.VertexCount())
		}
		return ids, parts, err
	case resize && s.policy.place == placeHash:
		// "shard = hash mod k" is the invariant future placements rely on,
		// so live and retired vertices alike re-hash at the new modulus.
		ids = s.assignedFrom(0)
		parts = make([]int, len(ids))
		for i, v := range ids {
			parts[i] = s.hash.ShardOf(v, newK)
		}
		return ids, parts, nil
	case newK < oldK:
		// Drain: each stranded vertex goes to the survivor that is
		// least-filled once the vertices before it have landed — live
		// population in decay mode (a retired vertex's sticky assignment
		// moves, the live population doesn't), assignment counts otherwise.
		ids = s.assignedFrom(newK)
		parts = make([]int, len(ids))
		fill := s.assign.Counts()[:newK]
		if s.decayEnabled() {
			copy(fill, s.liveCounts)
		}
		for i, v := range ids {
			to := 0
			for t := 1; t < newK; t++ {
				if fill[t] < fill[to] {
					to = t
				}
			}
			parts[i] = to
			if !s.decayEnabled() || s.full.HasVertex(v) {
				fill[to]++
			}
		}
		return ids, parts, nil
	}

	src := s.full
	if !resize {
		switch s.policy.source {
		case sourceWindow:
			src = s.window
		case sourceDecayedWindow:
			src = s.decayedWindowGraph()
		}
	}
	if src.VertexCount() == 0 {
		return nil, nil, nil
	}
	csr := s.csrb.Build(src)
	if s.policy.refine && !resize {
		// KL refines the current assignment; it never partitions from
		// scratch, so a split bootstraps the new shards with multilevel.
		parts, err = s.kl.Refine(csr, newK, s.assign.ToParts(csr))
	} else {
		parts, err = s.ml.Partition(csr, newK)
	}
	if err == nil && len(parts) != csr.N() {
		err = fmt.Errorf("partitioner returned %d entries for %d vertices", len(parts), csr.N())
	}
	return csr.IDs, parts, err
}

// assignedFrom returns every assigned vertex — live or retired — on a shard
// >= minShard, in ascending ID order (Each's order) so the wave, and every
// OnMove, is deterministic.
func (s *Simulator) assignedFrom(minShard int) []graph.VertexID {
	var ids []graph.VertexID
	s.assign.Each(func(v graph.VertexID, shard int) bool {
		if shard >= minShard {
			ids = append(ids, v)
		}
		return true
	})
	return ids
}

// decayedWindowGraph builds the decayed repartition source for KL and
// R-METIS: the vertices of the current window graph, plus every edge of
// the decayed cumulative graph incident to at least one of them — at its
// decayed weight — which pulls in the one-hop decayed neighbourhood. This
// is the window-scoped analogue of the full decayed graph TR-METIS
// partitions: bounded by the window's reach rather than the whole live
// graph, but seeing recency-weighted adjacency instead of raw period
// counts. Window vertices whose every trace of activity has already
// retired from the live graph are kept as isolated vertices, so the
// partitioner still re-balances them. The graph is s.decayedWindow, reset
// and refilled at every wave.
func (s *Simulator) decayedWindowGraph() *graph.Graph {
	u := s.decayedWindow
	u.Reset()
	s.window.Vertices(func(id graph.VertexID, kind graph.Kind, _ int64) bool {
		if !s.full.HasVertex(id) {
			// Retired mid-period: no decayed adjacency survives, but the
			// vertex did transact this period and stays partitionable.
			u.EnsureVertex(id, kind)
			return true
		}
		u.EnsureVertex(id, s.full.VertexKind(id))
		// All decayed out-edges of a window vertex...
		s.full.OutNeighbors(id, func(v graph.VertexID, w int64) bool {
			if err := u.AddInteraction(id, v, s.full.VertexKind(id), s.full.VertexKind(v), w); err != nil {
				panic(fmt.Sprintf("sim: decayed window union: %v", err))
			}
			return true
		})
		// ...plus decayed in-edges from outside the window (edges between
		// two window vertices are covered once, by the source's out pass).
		s.full.InNeighbors(id, func(v graph.VertexID, w int64) bool {
			if s.window.HasVertex(v) {
				return true
			}
			if err := u.AddInteraction(v, id, s.full.VertexKind(v), s.full.VertexKind(id), w); err != nil {
				panic(fmt.Sprintf("sim: decayed window union: %v", err))
			}
			return true
		})
		return true
	})
	return u
}

// moveVertex re-assigns one already-placed vertex and accounts the move, in
// the order every observer relies on: the cumulative cut counters take the
// delta of its incident full-graph edges before the assignment flips (so a
// wave costs O(sum of moved-vertex degrees), not an O(E) recount), then
// moved storage, live counts, the assignment itself, and OnMove last.
func (s *Simulator) moveVertex(v graph.VertexID, from, to int) error {
	s.moveCutDelta(v, from, to)
	if s.cfg.StorageSlots != nil {
		slots := int64(s.cfg.StorageSlots(v))
		s.winSlots += slots
		s.result.TotalMovedSlots += slots
	}
	// Live counts follow the move. A window-graph or drained vertex may
	// already have retired from the live graph; its sticky assignment still
	// moves, the live population doesn't.
	if s.decayEnabled() && s.full.HasVertex(v) {
		s.liveCounts[from]--
		s.liveCounts[to]++
	}
	if _, _, err := s.assign.Assign(v, to); err != nil {
		return err
	}
	if s.cfg.OnMove != nil {
		s.cfg.OnMove(v, from, to)
	}
	return nil
}

// moveCutDelta updates the cumulative cut counters for vertex v moving from
// shard old to shard next. It must run before the assignment is updated;
// neighbour shards reflect the current (possibly mid-wave) state, which
// keeps the invariant exact because each single-vertex move is accounted
// against the state it executes in.
func (s *Simulator) moveCutDelta(v graph.VertexID, old, next int) {
	adjust := func(u graph.VertexID, _ int64) bool {
		su, ok := s.assign.ShardOf(u)
		if !ok {
			return true
		}
		wasCross := su != old
		isCross := su != next
		if wasCross == isCross {
			return true
		}
		if isCross {
			s.cutEdges++
		} else {
			s.cutEdges--
		}
		return true
	}
	s.full.OutNeighbors(v, adjust)
	s.full.InNeighbors(v, adjust)
}

// setK re-sizes the assignment and every k-indexed slice to k shards.
// Growth appends written zeros (append copies them in, so capacity reuse
// after an earlier shrink can never resurrect stale values); shrink
// truncates — the wave has folded runLoad first, and winLoad is all zeros
// because waves only run at window boundaries, right after flushWindow's
// reset.
func (s *Simulator) setK(k int) error {
	if err := s.assign.Resize(k); err != nil {
		return err
	}
	s.cfg.K = k
	s.placeScratch = resized(s.placeScratch, k)
	s.loadScratch = resized(s.loadScratch, k)
	s.winLoad = resized(s.winLoad, k)
	s.runLoad = resized(s.runLoad, k)
	if s.liveCounts != nil {
		s.liveCounts = resized(s.liveCounts, k)
	}
	return nil
}

func resized[T any](sl []T, k int) []T {
	if k <= len(sl) {
		return sl[:k]
	}
	return append(sl, make([]T, k-len(sl))...)
}
