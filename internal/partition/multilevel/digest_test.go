package multilevel

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"ethpart/internal/golden"
	"ethpart/internal/graph"
	"ethpart/internal/trace"
	"ethpart/internal/workload"
)

// digestFile pins the partitioner's output bit for bit. It was generated
// at the commit before the partitioner's internals were reworked (PR 20);
// re-pin it (DESIGN.md §10, "Re-pinning") only in a PR whose stated purpose
// is to change the partitioner's output.
//
// Provenance: the file is the parent tree's output, commit 5aa54d0. This
// test file and testdata/ drop into a clean checkout of that commit as they
// were then (the helpers they use predate it), and TestPartitionDigests
// passed there unchanged — checked that way before PR 20 was committed.
const digestFile = "testdata/partition_digests.json"

// powerLawCSR is the workload-generated digest graph: 54 hours of the
// flash-nft-mint scenario, ≈5k vertices with a handful of four-digit-degree
// hubs over a median degree of 3, edge weights and vertex weights by
// interaction frequency.
var powerLawCSR = sync.OnceValue(func() *graph.CSR {
	sc, err := workload.ResolveScenario("flash-nft-mint", "", 54, 1)
	if err != nil {
		panic(err)
	}
	gen, err := workload.NewScenario(sc)
	if err != nil {
		panic(err)
	}
	recs, _, err := trace.ReadAll(gen.Stream())
	if err != nil {
		panic(err)
	}
	g := graph.New()
	for i := range recs {
		r := &recs[i]
		if err := g.AddInteraction(graph.VertexID(r.From), graph.VertexID(r.To), r.FromKind(), r.ToKind(), 1); err != nil {
			panic(err)
		}
	}
	return graph.NewCSR(g)
})

type digestGraph struct {
	name string
	csr  *graph.CSR
}

func digestGraphs() []digestGraph {
	return []digestGraph{
		{"ring", graph.NewCSR(ringGraph(2000))},
		{"two-cluster", graph.NewCSR(twoClusters(150, 12, rand.New(rand.NewSource(42))))},
		{"power-law", powerLawCSR()},
	}
}

// partsDigest is FNV-64a over the parts slice, four little-endian bytes per
// vertex.
func partsDigest(parts []int) string {
	h := fnv.New64a()
	var b [4]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint32(b[:], uint32(p))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// computeDigests partitions every (graph, k, seed) cell, keyed as the
// committed file keys it.
func computeDigests(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, dg := range digestGraphs() {
		for _, k := range []int{2, 3, 4, 5, 8} {
			for _, seed := range []int64{1, 7} {
				parts, err := New(Config{Seed: seed}).Partition(dg.csr, k)
				if err != nil {
					t.Fatal(err)
				}
				partsValid(t, parts, dg.csr.N(), k)
				out[fmt.Sprintf("%s/k=%d/seed=%d/default", dg.name, k, seed)] = partsDigest(parts)
			}
		}
	}
	return out
}

// TestPartitionDigests pins the partitioner's output, bit for bit, on three
// graph shapes × five k × two seeds, with one and with four Ps: every exact
// count the ledger and the sim goldens pin sits downstream of these
// partitions.
func TestPartitionDigests(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			g := golden.Object(t, digestFile, func(got, want string) bool { return got == want })
			digests := computeDigests(t)
			for _, key := range slices.Sorted(maps.Keys(digests)) {
				g.Check(t, key, digests[key])
			}
			g.Done(t)
		})
	}
}
