package graph

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCSREmpty(t *testing.T) {
	c := NewCSR(New())
	if c.N() != 0 {
		t.Fatalf("N = %d, want 0", c.N())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCSRSmall(t *testing.T) {
	g := New()
	mustAdd(t, g, 10, 20, 3)
	mustAdd(t, g, 20, 10, 2) // merged into one undirected edge of weight 5
	mustAdd(t, g, 10, 30, 1)

	c := NewCSR(g)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.N() != 3 {
		t.Fatalf("N = %d, want 3", c.N())
	}
	if c.NumEdges != 2 {
		t.Fatalf("NumEdges = %d, want 2", c.NumEdges)
	}
	if c.TotalEW != 6 {
		t.Fatalf("TotalEW = %d, want 6", c.TotalEW)
	}

	// IDs ascend, so vertex 10 is local 0.
	if c.IDs[0] != 10 {
		t.Fatalf("IDs = %v, want 10 first", c.IDs)
	}
	adj, w := c.Row(0)
	if len(adj) != 2 {
		t.Fatalf("degree of 10 = %d, want 2", len(adj))
	}
	// Row sorted by local index; 20 and 30 have indices 1 and 2.
	if c.IDs[adj[0]] != 20 || w[0] != 5 {
		t.Errorf("first neighbour of 10 = id %d w %d, want 20 w 5", c.IDs[adj[0]], w[0])
	}
	if c.IDs[adj[1]] != 30 || w[1] != 1 {
		t.Errorf("second neighbour of 10 = id %d w %d, want 30 w 1", c.IDs[adj[1]], w[1])
	}
}

func TestCSRSelfLoopExcluded(t *testing.T) {
	g := New()
	if err := g.AddInteraction(1, 1, KindContract, KindContract, 4); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, g, 1, 2, 1)
	c := NewCSR(g)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NumEdges != 1 {
		t.Fatalf("NumEdges = %d, want 1 (self loop excluded)", c.NumEdges)
	}
}

func TestCSRVertexWeightsPreserved(t *testing.T) {
	g := New()
	mustAdd(t, g, 1, 2, 3)
	mustAdd(t, g, 3, 1, 2)
	c := NewCSR(g)
	for i, id := range c.IDs {
		if c.VW[i] != vertexWeight(g, id) {
			t.Errorf("VW[%d] = %d, want %d", i, c.VW[i], vertexWeight(g, id))
		}
	}
	if c.TotalVW != totalVertexWeight(g) {
		t.Errorf("TotalVW = %d, want %d", c.TotalVW, totalVertexWeight(g))
	}
}

func TestPropertyCSRValid(t *testing.T) {
	// Property: for any random interaction sequence the CSR passes its own
	// validation and preserves vertex count and undirected edge count.
	f := func(seed int64, nRaw, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%40) + 2
		m := int(mRaw%150) + 1
		g := randomGraph(rng, n, m)
		c := NewCSR(g)
		if err := c.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		if c.N() != g.VertexCount() {
			return false
		}
		// Undirected edges: count distinct unordered pairs in g.
		pairs := map[[2]VertexID]bool{}
		g.Edges(func(u, v VertexID, _ int64) bool {
			a, b := u, v
			if a > b {
				a, b = b, a
			}
			pairs[[2]VertexID{a, b}] = true
			return true
		})
		return c.NumEdges == len(pairs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWriteDOT(t *testing.T) {
	g := New()
	if err := g.AddInteraction(1, 2, KindAccount, KindContract, 3); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := g.WriteDOT(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`digraph "fig2"`,
		"1 [shape=ellipse, style=solid];",
		"2 [shape=box, style=dashed];",
		`1 -> 2 [label="3"];`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func BenchmarkNewCSR(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 10000, 50000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCSR(g)
		if c.N() == 0 {
			b.Fatal("empty csr")
		}
	}
}

func BenchmarkAddInteraction(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := VertexID(rng.Intn(100000))
		v := VertexID(rng.Intn(100000))
		if err := g.AddInteraction(u, v, KindAccount, KindAccount, 1); err != nil {
			b.Fatal(err)
		}
	}
}
