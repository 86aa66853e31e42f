package main

import (
	"fmt"
	"strconv"
	"time"

	"ethpart/internal/experiments"
	"ethpart/internal/report"
)

// costs prices what the live chain measured for every method under both
// multi-shard models — the "computation, storage and bandwidth" extension
// from the paper's final remarks — at datacenter and wide-area prices. One
// co-simulation per method × model serves both pricings.
func costs(ds *experiments.Dataset, out output, k int) error {
	fmt.Fprintf(out.w, "=== Extension: operating cost per method, priced from the live chain (k=%d) ===\n", k)
	rows, err := ds.Operational(k)
	if err != nil {
		return err
	}
	keys, cells := experiments.OpsTable(rows, "model", "method")
	headers := append(append([]string{"pricing"}, keys...), "execution", "coordination", "relocation", "imbalance", "total")
	var table [][]string
	for _, pricing := range []struct {
		name   string
		prices experiments.Prices
	}{
		{"datacenter", experiments.DatacenterPrices},
		{"wide-area", experiments.WideAreaPrices},
	} {
		for i, r := range rows {
			b := pricing.prices.Bill(r)
			table = append(table, append(append([]string{pricing.name}, cells[i]...),
				report.FormatFloat(b.Execution),
				report.FormatFloat(b.Coordination),
				report.FormatFloat(b.Relocation),
				report.FormatFloat(b.Imbalance),
				report.FormatFloat(b.Total())))
		}
	}
	if err := report.Table(out.w, headers, table); err != nil {
		return err
	}
	fmt.Fprint(out.w, `
  coordination prices the chain's cross-shard traffic (receipts, or
  the migration model's inline sender moves); relocation prices what
  repartition waves moved (accounts + storage slots); imbalance prices
  capacity stranded in idle shards. Wide-area pricing multiplies
  message cost 10x, shifting the optimum toward low-cut methods.
`)
	return out.csv("costs.csv", headers, table)
}

// opsFigure renders one operational figure: the rows under the named
// columns (experiments.OpsTable's vocabulary) as a table, the caption, and
// the same table as name in the CSV directory.
func opsFigure(out output, name string, rows []experiments.OpsRow, caption string, columns ...string) error {
	headers, table := experiments.OpsTable(rows, columns...)
	if err := report.Table(out.w, headers, table); err != nil {
		return err
	}
	fmt.Fprint(out.w, caption)
	return out.csv(name, headers, table)
}

// decaycost runs the operational decay comparison — the roadmap's missing
// figure: migration cost with and without windowed decay over a
// drifting-era history, through the live chain under the migration model.
func decaycost(seed int64, out output, k int, decay, horizon time.Duration) error {
	fmt.Fprintf(out.w, "=== Extension: migration cost with vs without decay (drifting eras, k=%d, migration model) ===\n", k)
	rows, err := experiments.DecayOperational(experiments.DecayParams{Seed: seed, K: k, HalfLife: decay, Horizon: horizon})
	if err != nil {
		return err
	}
	return opsFigure(out, "decaycost.csv", rows, `
  Every era retires the previous era's active set. Full-history
  repartitioners keep re-deciding (and re-migrating) dead accounts;
  decay partitions only the live set, so waves move less state and
  the live graph stays bounded by the retention horizon.
`,
		"method", "mode=label", "repartitions", "moves", "wave_migrations",
		"wave_slots", "migrations", "migrated_slots", "messages", "dyn_cut",
		"live_vertices")
}

// scalecost runs the elastic-shard-count comparison — cost (shard-windows
// provisioned) against SLO (saturation, cross-shard traffic, settlement)
// on a flash-crowd history, for fixed provisioning at k-min and k-max and
// for the saturation-driven autoscaler ranging between them.
func scalecost(seed int64, out output, kmin, kmax int) error {
	fmt.Fprintf(out.w, "=== Extension: provisioning cost vs SLO on a flash crowd (k-min=%d, k-max=%d, receipts model) ===\n", kmin, kmax)
	rows, err := experiments.ScaleOperational(experiments.ScaleParams{Seed: seed, KMin: kmin, KMax: kmax})
	if err != nil {
		return err
	}
	return opsFigure(out, "scalecost.csv", rows, `
  Fixed-small saturates during the crowd (peak load), fixed-large
  pays for idle shards the whole run (shard-windows). The autoscaler
  splits when the surge crosses its high-water mark and merges the
  extra shards away once the crowd leaves, buying most of the relief
  at a fraction of the standing cost.
`,
		"mode=label", "k_start", "k_final", "resizes", "shard_windows", "peak_load",
		"messages", "latency(blk)", "migrations", "migrated_slots", "failed",
		"dyn_cut")
}

// scenariocost runs the open-loop scenario comparison: the full
// method × multi-shard-model matrix on each named workload scenario,
// reporting the operational metrics the paper's edge-cut curves proxy.
// The point of the figure: method rankings that hold on the historical
// era trace are re-tested across workload shapes — steady, diurnal and
// flash-crowd arrivals over different contract archetypes.
func scenariocost(seed int64, out output, k int, hours float64) error {
	fmt.Fprintf(out.w, "=== Extension: method × model matrix across open-loop scenarios (k=%d) ===\n", k)
	rows, err := experiments.ScenarioCost(experiments.ScenarioCostParams{Seed: seed, K: k, Hours: hours})
	if err != nil {
		return err
	}
	return opsFigure(out, "scenariocost.csv", rows, `
  Each scenario is one open-loop composition (arrival × population
  × mix) from the workload library; every method replays the same
  per-scenario trace under both multi-shard models. Hub-heavy and
  flash-crowd shapes separate the methods far more than the steady
  transfer baseline does.
`,
		"scenario=label", "model", "method", "records", "dyn_cut", "messages",
		"latency(blk)", "wave_migrations", "wave_slots", "migrations",
		"migrated_slots", "failed")
}

// shardaware reruns the method comparison on a community-local workload —
// the "applications will be designed in a different way" extension. The
// decay flags apply to both halves of the comparison identically.
func shardaware(seed int64, scale float64, out output, k int, decay, horizon time.Duration) error {
	fmt.Fprintf(out.w, "=== Extension: shard-aware workload (k=%d communities, locality 0.95) ===\n", k)
	fmt.Fprintln(out.w, "generating baseline and shard-aware histories...")
	params := experiments.DefaultShardAwareParams(seed, scale)
	params.DecayHalfLife = decay
	params.Horizon = horizon
	rows, err := experiments.ShardAware(params, k, 0.95)
	if err != nil {
		return err
	}
	var table [][]string
	for _, r := range rows {
		improvement := "-"
		if r.BaselineCut > 0 {
			improvement = strconv.FormatFloat(100*(1-r.AwareCut/r.BaselineCut), 'f', 1, 64) + "%"
		}
		table = append(table, []string{
			r.Method.String(),
			report.FormatFloat(r.BaselineCut),
			report.FormatFloat(r.AwareCut),
			improvement,
			report.FormatFloat(r.BaselineBal),
			report.FormatFloat(r.AwareBal),
		})
	}
	headers := []string{"method", "cut (today)", "cut (shard-aware)", "cut reduction", "bal (today)", "bal (shard-aware)"}
	if err := report.Table(out.w, headers, table); err != nil {
		return err
	}
	fmt.Fprintln(out.w, "\n  When applications keep interactions community-local, the")
	fmt.Fprintln(out.w, "  placement-aware methods can follow the structure and the cut")
	fmt.Fprintln(out.w, "  collapses; hashing cannot exploit it and stays near (k-1)/k.")
	return out.csv("shardaware.csv", headers, table)
}
