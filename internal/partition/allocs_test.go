//go:build !race

package partition

import (
	"math/rand"
	"testing"

	"ethpart/internal/graph"
)

// TestAllocsKLRefine is KL's allocation ceiling: one Refine of a hashed
// partition (k = 4) over a random graph of 3,000 vertices makes at most
// klCeiling heap objects. The proposal lists and the attraction scratch
// are allocated once per Refine and refilled every round, so what remains
// is the copy of the partition, the seeded generator, the lists' growth in
// the first round and the oracle's two k×k matrices per round: 192
// measured, where allocating the lists every round made 1,234.
func TestAllocsKLRefine(t *testing.T) {
	const klCeiling = 250.0
	rng := rand.New(rand.NewSource(1))
	g := graph.New()
	for i := 0; i < 20_000; i++ {
		u, v := graph.VertexID(rng.Intn(3000)), graph.VertexID(rng.Intn(3000))
		if err := g.AddInteraction(u, v, graph.KindAccount, graph.KindAccount, int64(1+rng.Intn(3))); err != nil {
			t.Fatal(err)
		}
	}
	c := graph.NewCSR(g)
	parts, err := Hash{}.Partition(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	kl := NewKL()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := kl.Refine(c, 4, parts); err != nil {
			panic(err)
		}
	})
	t.Logf("%.0f objects per Refine", allocs)
	if allocs > klCeiling {
		t.Errorf("Refine made %.0f objects, ceiling %.0f", allocs, klCeiling)
	}
}
