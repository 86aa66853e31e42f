// Package partition implements the paper's five blockchain-graph
// partitioning methods and their shared machinery:
//
//   - Hash: stateless hashing of vertex IDs (§II-C "Hashing");
//   - KL: the distributed Kernighan–Lin variant in which shards propose
//     moves and an oracle computes a k×k probability matrix that keeps the
//     exchange balanced (§II-C "Kernighan-Lin algorithm");
//   - Multilevel (sub-package multilevel): a METIS-style multilevel
//     partitioner used by the METIS, R-METIS and TR-METIS methods;
//   - the incremental placement rule used for vertices that appear between
//     repartitionings: pick the shard that minimises edge-cut, break ties
//     toward the better balance (§II-C "METIS" bullet).
//
// The windowed (R-METIS) and threshold-triggered (TR-METIS) behaviours are
// repartitioning *policies* over these algorithms; they live in the sim
// package, which decides when to repartition and over which graph.
package partition

import (
	"fmt"

	"ethpart/internal/graph"
)

// NoShard marks a vertex without an assignment.
const NoShard = -1

// Partitioner computes a partition of a graph from scratch.
type Partitioner interface {
	// Partition returns a shard in [0,k) for every local vertex of c.
	Partition(c *graph.CSR, k int) ([]int, error)
}

// Assignment tracks the shard of every vertex plus per-shard vertex counts.
// It is the mutable, incremental structure the simulator maintains between
// repartitionings; partitioners work on CSR-indexed slices (ToParts going
// in) and the owner applies their output back one Assign per moved vertex,
// so it can account each move as it lands (see sim's repartition wave).
//
// Storage is a dense VertexID-indexed table (vertex IDs are registry
// indices below graph.MaxVertexID), so shard lookups on the replay hot path
// are a bounds check and a load instead of a map probe.
type Assignment struct {
	k      int
	shards []int32 // VertexID -> shard, noShard when unassigned
	n      int     // number of assigned vertices
	counts []int
}

// noShard is the internal unassigned sentinel of the dense shard table.
const noShard int32 = -1

// NewAssignment returns an empty assignment over k shards.
func NewAssignment(k int) (*Assignment, error) {
	if k < 1 {
		return nil, fmt.Errorf("partition: k must be >= 1, got %d", k)
	}
	return &Assignment{
		k:      k,
		counts: make([]int, k),
	}, nil
}

// K returns the number of shards.
func (a *Assignment) K() int { return a.k }

// Len returns the number of assigned vertices.
func (a *Assignment) Len() int { return a.n }

// ShardOf returns the shard of v.
func (a *Assignment) ShardOf(v graph.VertexID) (int, bool) {
	if v < graph.VertexID(len(a.shards)) {
		if s := a.shards[v]; s != noShard {
			return int(s), true
		}
	}
	return 0, false
}

// Count returns the number of vertices in shard s.
func (a *Assignment) Count(s int) int { return a.counts[s] }

// Counts returns a copy of the per-shard vertex counts.
func (a *Assignment) Counts() []int {
	return append([]int(nil), a.counts...)
}

// Assign places v in shard s, returning the previous shard (or NoShard) and
// whether this was a move of an already-assigned vertex.
func (a *Assignment) Assign(v graph.VertexID, s int) (prev int, moved bool, err error) {
	if s < 0 || s >= a.k {
		return NoShard, false, fmt.Errorf("partition: shard %d out of range [0,%d)", s, a.k)
	}
	if v >= graph.MaxVertexID {
		return NoShard, false, fmt.Errorf("partition: vertex %d out of range [0,%d)", v, graph.MaxVertexID)
	}
	if graph.VertexID(len(a.shards)) <= v {
		grown := append(a.shards, make([]int32, int(v)+1-len(a.shards))...)
		for i := len(a.shards); i < len(grown); i++ {
			grown[i] = noShard
		}
		a.shards = grown
	}
	old := a.shards[v]
	a.shards[v] = int32(s)
	if old != noShard {
		if int(old) == s {
			return int(old), false, nil
		}
		a.counts[old]--
		a.counts[s]++
		return int(old), true, nil
	}
	a.counts[s]++
	a.n++
	return NoShard, false, nil
}

// Resize changes the shard count to k, keeping every existing assignment.
// Growing adds empty shards at the top of the range. Shrinking requires the
// dropped shards (index >= k) to be empty — the caller drains them first by
// reassigning their vertices to survivors — so a resize can never silently
// orphan an assignment onto a shard that no longer exists.
func (a *Assignment) Resize(k int) error {
	if k < 1 {
		return fmt.Errorf("partition: k must be >= 1, got %d", k)
	}
	if k >= a.k {
		a.counts = append(a.counts, make([]int, k-a.k)...)
		a.k = k
		return nil
	}
	for s := k; s < a.k; s++ {
		if a.counts[s] != 0 {
			return fmt.Errorf("partition: resize to k=%d would orphan %d vertices on shard %d",
				k, a.counts[s], s)
		}
	}
	a.counts = a.counts[:k]
	a.k = k
	return nil
}

// Each calls fn for every assigned vertex in ascending ID order.
func (a *Assignment) Each(fn func(v graph.VertexID, shard int) bool) {
	for v, s := range a.shards {
		if s == noShard {
			continue
		}
		if !fn(graph.VertexID(v), int(s)) {
			return
		}
	}
}

// ToParts converts the assignment into a CSR-indexed slice for refiners.
// Unassigned vertices get NoShard.
func (a *Assignment) ToParts(c *graph.CSR) []int {
	parts := make([]int, c.N())
	for i, id := range c.IDs {
		if s, ok := a.ShardOf(id); ok {
			parts[i] = s
		} else {
			parts[i] = NoShard
		}
	}
	return parts
}

// ValidateParts checks that every entry of parts is a legal shard.
func ValidateParts(parts []int, k int) error {
	for i, s := range parts {
		if s < 0 || s >= k {
			return fmt.Errorf("partition: vertex %d has illegal shard %d (k=%d)", i, s, k)
		}
	}
	return nil
}
