//go:build !race

package multilevel_test

import (
	"runtime"
	"testing"
	"time"

	"ethpart/internal/graph"
	"ethpart/internal/partition/multilevel"
	"ethpart/internal/sim"
	"ethpart/internal/workload"
)

// TestPartitionBytesEraScale is the partitioner's heap-bytes ceiling at the
// size the ledger partitions: the runtime.MemStats.TotalAlloc of one k = 4
// Partition of the seed-1 era history's final CSR (scale 0.002, 2 h blocks:
// 50,500 vertices, 449,246 half-edges, 6.10 MiB), as a multiple of the
// CSR's bytes. Measured 4.28× (27,427,296 B) with one scratch arena per
// call; 6.55× (41,921,216 B) with one per bisection. Earlier: 9.26×
// (59,277,272 B) with every ladder level stored. The ceiling sits between
// the first two.
func TestPartitionBytesEraScale(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the era history")
	}
	const ceiling = 5.0
	tr, err := sim.Generate(workload.Config{Seed: 1, Scale: 0.002, BlockInterval: 2 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	for i := range tr.Records {
		if err := tr.Records[i].Apply(g); err != nil {
			t.Fatal(err)
		}
	}
	c := graph.NewCSR(g)
	csrBytes := 8*len(c.IDs) + 8*len(c.VW) + 4*len(c.XAdj) + 4*len(c.Adj) + 8*len(c.AdjW)
	tr, g = nil, nil

	p := multilevel.New(multilevel.Config{Seed: 1})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := p.Partition(c, 4); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perCall := after.TotalAlloc - before.TotalAlloc
	ratio := float64(perCall) / float64(csrBytes)
	t.Logf("%d B per Partition, %.2f× the %d B CSR (ceiling %.1f×)", perCall, ratio, csrBytes, ceiling)
	if ratio > ceiling {
		t.Errorf("Partition allocated %.2f× its CSR, ceiling %.1f×", ratio, ceiling)
	}
}
