package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	tests := []struct {
		kind Kind
		want string
	}{
		{KindAccount, "account"},
		{KindContract, "contract"},
		{Kind(0), "Kind(0)"},
		{Kind(9), "Kind(9)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", tt.kind, got, tt.want)
		}
	}
}

func TestKindValid(t *testing.T) {
	if !KindAccount.Valid() || !KindContract.Valid() {
		t.Error("declared kinds must be valid")
	}
	if Kind(0).Valid() || Kind(3).Valid() {
		t.Error("undeclared kinds must be invalid")
	}
}

func TestEnsureVertex(t *testing.T) {
	g := New()
	if !g.EnsureVertex(1, KindAccount) {
		t.Fatal("first EnsureVertex should create the vertex")
	}
	if g.EnsureVertex(1, KindContract) {
		t.Fatal("second EnsureVertex should be a no-op")
	}
	if got := g.VertexKind(1); got != KindAccount {
		t.Fatalf("kind changed on re-ensure: got %v", got)
	}
	if g.EnsureVertex(MaxVertexID, KindAccount) || g.HasVertex(MaxVertexID) {
		t.Fatal("EnsureVertex accepted an ID at MaxVertexID")
	}
	if g.VertexCount() != 1 || g.MaxID() != 2 {
		t.Fatalf("VertexCount = %d, MaxID = %d, want 1 and 2", g.VertexCount(), g.MaxID())
	}
}

func TestAddInteractionBasics(t *testing.T) {
	g := New()
	if err := g.AddInteraction(1, 2, KindAccount, KindContract, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddInteraction(1, 2, KindAccount, KindContract, 2); err != nil {
		t.Fatal(err)
	}
	if got := g.EdgeCount(); got != 1 {
		t.Errorf("EdgeCount = %d, want 1 (repeated interaction reuses edge)", got)
	}
	if got := g.EdgeWeight(1, 2); got != 3 {
		t.Errorf("EdgeWeight(1,2) = %d, want 3", got)
	}
	if got := g.EdgeWeight(2, 1); got != 0 {
		t.Errorf("EdgeWeight(2,1) = %d, want 0 (directed)", got)
	}
	if got := g.VertexWeight(1); got != 3 {
		t.Errorf("VertexWeight(1) = %d, want 3", got)
	}
	if got := g.VertexWeight(2); got != 3 {
		t.Errorf("VertexWeight(2) = %d, want 3", got)
	}
	if got := g.TotalEdgeWeight(); got != 3 {
		t.Errorf("TotalEdgeWeight = %d, want 3", got)
	}
	if got := g.TotalVertexWeight(); got != 6 {
		t.Errorf("TotalVertexWeight = %d, want 6", got)
	}
}

func TestAddInteractionRejectsBadInput(t *testing.T) {
	g := New()
	if err := g.AddInteraction(1, 2, KindAccount, KindAccount, 0); err == nil {
		t.Error("zero weight must be rejected")
	}
	if err := g.AddInteraction(1, 2, KindAccount, KindAccount, -4); err == nil {
		t.Error("negative weight must be rejected")
	}
	if err := g.AddInteraction(1, 2, Kind(0), KindAccount, 1); err == nil {
		t.Error("invalid from-kind must be rejected")
	}
	if err := g.AddInteraction(1, 2, KindAccount, Kind(7), 1); err == nil {
		t.Error("invalid to-kind must be rejected")
	}
	if g.VertexCount() != 0 || g.EdgeCount() != 0 {
		t.Error("failed interactions must not mutate the graph")
	}
}

func TestSelfLoopAddsNoEdge(t *testing.T) {
	g := New()
	if err := g.AddInteraction(5, 5, KindContract, KindContract, 2); err != nil {
		t.Fatal(err)
	}
	if g.EdgeCount() != 0 {
		t.Errorf("self loop created an edge: EdgeCount = %d", g.EdgeCount())
	}
	if got := g.VertexWeight(5); got != 2 {
		t.Errorf("VertexWeight(5) = %d, want 2", got)
	}
	if g.TotalEdgeWeight() != 0 {
		t.Errorf("TotalEdgeWeight = %d, want 0", g.TotalEdgeWeight())
	}
}

func TestNeighborsCombinesDirections(t *testing.T) {
	g := New()
	mustAdd(t, g, 1, 2, 3) // 1->2 weight 3
	mustAdd(t, g, 2, 1, 4) // 2->1 weight 4
	mustAdd(t, g, 1, 3, 1) // 1->3 weight 1

	got := map[VertexID]int64{}
	g.Neighbors(1, func(v VertexID, w int64) bool {
		got[v] = w
		return true
	})
	if len(got) != 2 {
		t.Fatalf("Neighbors(1) visited %d vertices, want 2: %v", len(got), got)
	}
	if got[2] != 7 {
		t.Errorf("combined weight 1~2 = %d, want 7", got[2])
	}
	if got[3] != 1 {
		t.Errorf("combined weight 1~3 = %d, want 1", got[3])
	}
	if d := g.Degree(1); d != 2 {
		t.Errorf("Degree(1) = %d, want 2", d)
	}
	if d := g.Degree(3); d != 1 {
		t.Errorf("Degree(3) = %d, want 1", d)
	}
}

func TestNeighborsEarlyStop(t *testing.T) {
	g := New()
	mustAdd(t, g, 1, 2, 1)
	mustAdd(t, g, 1, 3, 1)
	mustAdd(t, g, 4, 1, 1)
	n := 0
	g.Neighbors(1, func(VertexID, int64) bool {
		n++
		return false
	})
	if n != 1 {
		t.Errorf("early stop visited %d neighbours, want 1", n)
	}
}

func TestVertexIDsSorted(t *testing.T) {
	g := New()
	for _, id := range []VertexID{42, 7, 99, 1} {
		g.EnsureVertex(id, KindAccount)
	}
	ids := g.VertexIDs()
	want := []VertexID{1, 7, 42, 99}
	if len(ids) != len(want) {
		t.Fatalf("len = %d, want %d", len(ids), len(want))
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("VertexIDs() = %v, want %v", ids, want)
		}
	}
}

func TestEdgesIteration(t *testing.T) {
	g := New()
	mustAdd(t, g, 1, 2, 3)
	mustAdd(t, g, 2, 3, 4)
	sum := int64(0)
	count := 0
	g.Edges(func(u, v VertexID, w int64) bool {
		sum += w
		count++
		return true
	})
	if count != 2 || sum != 7 {
		t.Errorf("Edges visited count=%d sum=%d, want 2 and 7", count, sum)
	}
}

// randomGraph builds a pseudo-random graph with n vertices and m interactions.
func randomGraph(rng *rand.Rand, n, m int) *Graph {
	g := New()
	for i := 0; i < m; i++ {
		u := VertexID(rng.Intn(n))
		v := VertexID(rng.Intn(n))
		ku, kv := KindAccount, KindAccount
		if u%3 == 0 {
			ku = KindContract
		}
		if v%3 == 0 {
			kv = KindContract
		}
		w := int64(1 + rng.Intn(5))
		if err := g.AddInteraction(u, v, ku, kv, w); err != nil {
			panic(err)
		}
	}
	return g
}

func TestPropertyTotalsConsistent(t *testing.T) {
	// Property: TotalEdgeWeight equals the sum over Edges, and
	// TotalVertexWeight equals the sum over Vertices, for any sequence of
	// interactions.
	f := func(seed int64, nRaw, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%40) + 2
		m := int(mRaw%120) + 1
		g := randomGraph(rng, n, m)

		var ew, vw int64
		g.Edges(func(_, _ VertexID, w int64) bool { ew += w; return true })
		g.Vertices(func(_ VertexID, _ Kind, w int64) bool { vw += w; return true })
		return ew == g.TotalEdgeWeight() && vw == g.TotalVertexWeight()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyDegreeMatchesNeighbors(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%30) + 2
		m := int(mRaw%100) + 1
		g := randomGraph(rng, n, m)
		ok := true
		g.Vertices(func(id VertexID, _ Kind, _ int64) bool {
			visited := 0
			g.Neighbors(id, func(VertexID, int64) bool { visited++; return true })
			if visited != g.Degree(id) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func mustAdd(t *testing.T, g *Graph, u, v VertexID, w int64) {
	t.Helper()
	if err := g.AddInteraction(u, v, KindAccount, KindAccount, w); err != nil {
		t.Fatal(err)
	}
}
