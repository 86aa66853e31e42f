// Package slab carves values from shared allocations, so that a layer
// creating many small, long-lived values pays a share of a heap object for
// each instead of a whole one.
//
// The rule every carved value obeys: it is zeroed memory that nothing has
// used before and that is never handed out again, and a lane is capped at
// its own length by a full slice expression, so an append to one lane can
// never reach the next. A carved value may therefore be retained, and a
// lane extended, by anyone. The price is retention: a chunk stays live
// while any of its members is reachable, so a chunk of pointer-holding
// values keeps alive whatever its dead members point at. Each caller picks
// its chunk size with that in mind (DESIGN §1, "Carved allocations").
package slab

// Chunks carves single values and lanes of T from the unused rest of its
// current chunk. The zero value is ready to use; a Chunks is not safe for
// concurrent use.
type Chunks[T any] struct {
	rest []T
}

// One returns a zero T carved from the current chunk, starting a chunk of
// chunk values when that one is used up.
func (c *Chunks[T]) One(chunk int) *T {
	return &c.Lane(1, chunk)[0]
}

// Lane returns n zero values with length and capacity n, carved from the
// current chunk, or from a new chunk of max(n, chunk) values when the rest
// of the current one is shorter than n. The rest of a chunk too short for
// a lane is dropped.
func (c *Chunks[T]) Lane(n, chunk int) []T {
	if len(c.rest) < n {
		c.rest = make([]T, max(n, chunk))
	}
	lane := c.rest[:n:n]
	c.rest = c.rest[n:]
	return lane
}
