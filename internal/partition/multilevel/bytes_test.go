//go:build !race

package multilevel

import (
	"runtime"
	"testing"

	"ethpart/internal/graph"
)

// bytesPerPartition returns the mean runtime.MemStats.TotalAlloc of a k-way
// Partition of c over five calls, after one warm-up call.
func bytesPerPartition(t *testing.T, c *graph.CSR, k int) uint64 {
	t.Helper()
	p := New(Config{Seed: 1})
	if _, err := p.Partition(c, k); err != nil {
		t.Fatal(err)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := p.Partition(c, k); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestPartitionBytes is the partitioner's heap-bytes ceiling: the mean
// runtime.MemStats.TotalAlloc of one k = 4 Partition of the power-law
// digest graph (5,070 vertices, 38,304 half-edges, a 0.54 MiB CSR). Measured
// 2,139,699 B with one scratch arena per call; 2,938,430 B with one per
// bisection. Earlier: 3,500,672 B with every ladder level stored,
// 8,765,664 B with the int64 partitioner and its per-call queues. The
// ceiling sits between the first two.
func TestPartitionBytes(t *testing.T) {
	const ceiling = 5 << 19 // 2.5 MiB
	perCall := bytesPerPartition(t, powerLawCSR(), 4)
	t.Logf("%d B per Partition (ceiling %d)", perCall, ceiling)
	if perCall > ceiling {
		t.Errorf("Partition allocated %d B, ceiling %d", perCall, ceiling)
	}
}

// TestPartitionScratchIsPerCall: a call's bisections share one scratch
// arena, so a k = 8 Partition of the digest graph — seven bisections —
// allocates little more than a k = 2 one, which makes the root bisection
// only. Measured 2,414,368 / 1,617,264 B = 1.49× with one arena per call;
// 3,921,672 / 1,617,264 B = 2.42× with one per bisection.
func TestPartitionScratchIsPerCall(t *testing.T) {
	const ceiling = 1.6
	c := powerLawCSR()
	k2, k8 := bytesPerPartition(t, c, 2), bytesPerPartition(t, c, 8)
	ratio := float64(k8) / float64(k2)
	t.Logf("k = 8: %d B, k = 2: %d B, %.2f× (ceiling %.1f×)", k8, k2, ratio, ceiling)
	if ratio > ceiling {
		t.Errorf("a k = 8 Partition allocated %.2f× a k = 2 one, ceiling %.1f×", ratio, ceiling)
	}
}
