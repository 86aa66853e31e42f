//go:build !race

package multilevel

import (
	"runtime"
	"testing"
)

// TestPartitionBytes is the partitioner's heap-bytes ceiling: the mean
// runtime.MemStats.TotalAlloc of one k = 4 Partition of the power-law
// digest graph (5,070 vertices, 38,304 half-edges, a 0.54 MiB CSR). Measured
// 2,942,048 B (5.2× the CSR) with the ladder stored at every other level,
// 3,500,672 B with every level stored (int32 edge weights and gains, 8-byte
// heap entries and one grown queue per arena), 8,765,664 B with the int64
// partitioner and its per-call queues. The ceiling sits above the second.
func TestPartitionBytes(t *testing.T) {
	const ceiling = 4 << 20
	c := powerLawCSR()
	p := New(Config{Seed: 1})
	if _, err := p.Partition(c, 4); err != nil {
		t.Fatal(err)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := p.Partition(c, 4); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d B per Partition (ceiling %d)", perCall, ceiling)
	if perCall > ceiling {
		t.Errorf("Partition allocated %d B, ceiling %d", perCall, ceiling)
	}
}
