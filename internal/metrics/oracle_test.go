package metrics

import "ethpart/internal/graph"

// The graph-walking forms of Eqs. 1 and 2 are the tests' oracle for the CSR
// forms production uses: they read the graph and an assignment directly,
// with no CSR in between.

// ShardFunc reports the shard of a vertex. The second result is false when
// the vertex is unassigned; unassigned endpoints make an edge uncounted.
type ShardFunc func(graph.VertexID) (int, bool)

// EdgeCut returns the fraction of edges whose endpoints live in different
// shards (Eq. 1). With dynamic=true edges are weighted by interaction
// frequency; otherwise every edge counts one.
func EdgeCut(g *graph.Graph, shardOf ShardFunc, dynamic bool) float64 {
	var cut, total int64
	g.Edges(func(u, v graph.VertexID, w int64) bool {
		su, ok1 := shardOf(u)
		sv, ok2 := shardOf(v)
		if !ok1 || !ok2 {
			return true
		}
		c := int64(1)
		if dynamic {
			c = w
		}
		total += c
		if su != sv {
			cut += c
		}
		return true
	})
	if total == 0 {
		return 0
	}
	return float64(cut) / float64(total)
}

// Balance returns the paper's balance metric (Eq. 2): the size of the
// largest shard times k over the total, so 1.0 is perfect balance and 2.0
// at k=2 means one shard holds everything. With dynamic=true sizes are
// vertex-weight sums (load); otherwise vertex counts.
func Balance(g *graph.Graph, shardOf ShardFunc, k int, dynamic bool) float64 {
	loads := make([]int64, k)
	var total int64
	g.Vertices(func(id graph.VertexID, _ graph.Kind, w int64) bool {
		s, ok := shardOf(id)
		if !ok {
			return true
		}
		c := int64(1)
		if dynamic {
			c = w
		}
		loads[s] += c
		total += c
		return true
	})
	return balanceOf(loads, total, k)
}
