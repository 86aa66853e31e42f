// Package metrics implements the paper's evaluation metrics (Eqs. 1 and 2):
// static and dynamic edge-cut, static and dynamic balance, the normalized
// balance used in Fig. 5, and helpers shared by the simulator and the
// benchmark harness.
//
// Static metrics treat every vertex and edge as weight one; dynamic metrics
// use the frequency weights the graph accumulates, which the paper argues
// reflect the system's real cross-shard traffic and load.
package metrics

import (
	"ethpart/internal/graph"
)

// EdgeCutParts returns the fraction of a CSR's edges whose endpoints the
// partitioner result puts on different shards (Eq. 1); each undirected edge
// counts once. With dynamic=true edges are weighted by interaction
// frequency; otherwise every edge counts one.
func EdgeCutParts(c *graph.CSR, parts []int, dynamic bool) float64 {
	var cut, total int64
	for u := int32(0); int(u) < c.N(); u++ {
		adj, w := c.Row(u)
		for p, v := range adj {
			if v <= u { // visit each undirected edge once
				continue
			}
			cw := int64(1)
			if dynamic {
				cw = w[p]
			}
			total += cw
			if parts[u] != parts[v] {
				cut += cw
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(cut) / float64(total)
}

// BalanceParts returns the paper's balance metric (Eq. 2) of a partitioner
// result over a CSR: the size of the largest shard times k over the total,
// so 1.0 is perfect balance and 2.0 at k=2 means one shard holds
// everything. With dynamic=true sizes are vertex-weight sums (load);
// otherwise vertex counts.
func BalanceParts(c *graph.CSR, parts []int, k int, dynamic bool) float64 {
	loads := make([]int64, k)
	var total int64
	for i := 0; i < c.N(); i++ {
		w := int64(1)
		if dynamic {
			w = c.VW[i]
		}
		loads[parts[i]] += w
		total += w
	}
	return balanceOf(loads, total, k)
}

// LoadBalance computes Eq. 2 directly from per-shard loads, used by the
// simulator for per-window dynamic balance where the loads are the activity
// observed in the window.
func LoadBalance(loads []int64) float64 {
	var total int64
	for _, l := range loads {
		total += l
	}
	return balanceOf(loads, total, len(loads))
}

// NormalizedBalance maps a balance value to [0,1] across different shard
// counts, as in Fig. 5: (balance − 1) / (k − 1). For k=1 the balance is
// always exactly 1 and the normalized value is 0.
func NormalizedBalance(balance float64, k int) float64 {
	if k <= 1 {
		return 0
	}
	return (balance - 1) / float64(k-1)
}

func balanceOf(loads []int64, total int64, k int) float64 {
	if total == 0 {
		return 1
	}
	var max int64
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	return float64(max) * float64(k) / float64(total)
}
