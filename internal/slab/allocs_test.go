//go:build !race

package slab

import "testing"

// TestAllocsChunk holds carving to one heap object per chunk: chunk single
// carves, or chunk/4 lanes of four, from a Chunks whose chunk is used up
// make exactly one allocation, and so does a lane longer than the chunk.
func TestAllocsChunk(t *testing.T) {
	const chunk = 64
	var ones Chunks[[5]int64]
	if got := testing.AllocsPerRun(100, func() {
		for range chunk {
			ones.One(chunk)
		}
	}); got != 1 {
		t.Errorf("%d single carves: %.2f objects, want 1", chunk, got)
	}
	var lanes Chunks[*int]
	if got := testing.AllocsPerRun(100, func() {
		for range chunk / 4 {
			lanes.Lane(4, chunk)
		}
	}); got != 1 {
		t.Errorf("%d lanes of 4: %.2f objects, want 1", chunk/4, got)
	}
	var long Chunks[int32]
	if got := testing.AllocsPerRun(100, func() { long.Lane(chunk+1, chunk) }); got != 1 {
		t.Errorf("a lane of %d from chunks of %d: %.2f objects, want 1", chunk+1, chunk, got)
	}
}
