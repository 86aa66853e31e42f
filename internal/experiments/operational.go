package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"ethpart/internal/opsim"
	"ethpart/internal/report"
	"ethpart/internal/shardchain"
	"ethpart/internal/sim"
)

// Every figure above the bridge is a matrix of co-simulations distilled
// into the same few numbers. This file is the one runner they share
// (cells in, rows out), the one column vocabulary their tables and CSVs
// are rendered from, and the prices the costs figure bills rows at;
// decay.go, scale.go and scenario.go only build cells.

// Models lists the two multi-shard handling classes in presentation order.
func Models() []shardchain.Model {
	return []shardchain.Model{shardchain.ModelReceipts, shardchain.ModelMigration}
}

// OpsCell is one co-simulation of an operational figure: a trace replayed
// through the live sharded chain under one configuration. Label is the
// figure's own row key where method × model does not identify the cell
// (decaycost's and scalecost's mode, scenariocost's scenario).
type OpsCell struct {
	Label  string
	Trace  *sim.GeneratedTrace
	Config opsim.Config
}

// OpsRow is a cell with its outcome.
type OpsRow struct {
	OpsCell
	Result *opsim.Result
}

// RunOps runs every cell's co-simulation and returns the rows in cell
// order. The cells run in parallel: each replay only reads its trace, like
// sim.RunSweep's.
func RunOps(cells []OpsCell) ([]OpsRow, error) {
	rows := make([]OpsRow, len(cells))
	errs := make([]error, len(cells))
	sim.RunIndexed(len(cells), func(i int) {
		rows[i].OpsCell = cells[i]
		rows[i].Result, errs[i] = opsim.Run(cells[i].Trace, cells[i].Config)
	})
	for i, err := range errs {
		if err != nil {
			cfg := cells[i].Config
			return nil, fmt.Errorf("experiments: ops %v/%v k=%d %q: %w",
				cfg.Sim.Method, cfg.Model, cfg.Sim.K, cells[i].Label, err)
		}
	}
	return rows, nil
}

// opsCell is the dataset's cell for one method × model at k shards, under
// the paper's policy parameters.
func (d *Dataset) opsCell(method sim.Method, model shardchain.Model, k int) OpsCell {
	return OpsCell{Trace: d.GT, Config: opsim.Config{Sim: d.configFor(method, k), Model: model}}
}

// Operational replays the history through the live sharded chain for every
// method under both multi-shard models at k shards — the end-to-end
// measurement the paper's edge-cut curves proxy: cross-shard messages,
// settlement latency, migrated state and failed transactions, per window
// and in total. Rows come back grouped by model, then method.
func (d *Dataset) Operational(k int) ([]OpsRow, error) {
	if k < 1 {
		return nil, fmt.Errorf("experiments: ops: k must be >= 1, got %d", k)
	}
	var cells []OpsCell
	for _, model := range Models() {
		for _, m := range sim.Methods() {
			cells = append(cells, d.opsCell(m, model, k))
		}
	}
	return RunOps(cells)
}

// opsColumns is the column vocabulary: every quantity any operational
// figure reports, each with its one formatting rule. The wave columns
// isolate what repartition waves (and merge drains) moved; migrations and
// migrated_slots are the chain totals, including the migration model's
// traffic-driven inline moves.
var opsColumns = map[string]func(OpsRow) string{
	"label":   func(r OpsRow) string { return r.Label },
	"method":  func(r OpsRow) string { return r.Result.Method.String() },
	"model":   func(r OpsRow) string { return r.Result.Model.String() },
	"records": func(r OpsRow) string { return report.FormatCount(int64(len(r.Trace.Records))) },
	"k_start": func(r OpsRow) string { return strconv.Itoa(r.Result.K) },
	"k_final": func(r OpsRow) string { return strconv.Itoa(r.Result.FinalShards()) },
	"resizes": func(r OpsRow) string { return strconv.Itoa(len(r.Result.Sim.Resizes)) },

	"dyn_cut":   func(r OpsRow) string { return report.FormatFloat(r.Result.Sim.OverallDynamicCut) },
	"cross-txs": func(r OpsRow) string { return fmt.Sprintf("%.1f%%", 100*r.Result.Totals.CrossFraction()) },
	"messages":  func(r OpsRow) string { return report.FormatCount(r.Result.Totals.Messages) },
	// Settlement latency is undefined when nothing settled (the migration
	// model forwards instead of settling receipts).
	"latency(blk)": func(r OpsRow) string {
		if r.Result.Totals.ReceiptsSettled == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2f", r.Result.Totals.MeanSettlement())
	},
	"failed": func(r OpsRow) string { return report.FormatCount(r.Result.Totals.Failed) },

	"repartitions":    func(r OpsRow) string { return strconv.Itoa(r.Result.Sim.Repartitions) },
	"moves":           func(r OpsRow) string { return report.FormatCount(r.Result.Sim.TotalMoves) },
	"wave_migrations": func(r OpsRow) string { return report.FormatCount(r.Result.WaveMigrations) },
	"wave_slots":      func(r OpsRow) string { return report.FormatCount(r.Result.WaveMigratedSlots) },
	"migrations":      func(r OpsRow) string { return report.FormatCount(r.Result.Totals.Migrations) },
	"migrated_slots":  func(r OpsRow) string { return report.FormatCount(r.Result.Totals.MigratedSlots) },

	"live_vertices": func(r OpsRow) string { return strconv.Itoa(r.Result.Sim.Vertices) },
	"shard_windows": func(r OpsRow) string { return report.FormatCount(r.Result.ShardWindows()) },
	"peak_load":     func(r OpsRow) string { return report.FormatCount(r.Result.PeakWindowLoad()) },
	"ms/blk":        func(r OpsRow) string { return fmt.Sprintf("%.3f", r.Result.MsPerBlock()) },
}

// OpsTable renders rows under the named vocabulary columns, in order, as
// the headers and cells report.Table and report.CSV take. A name of the
// form "header=name" renders column name under another header (a figure's
// name for its label column, the ops table's terse spellings). Names are
// literals at the call sites; an unknown one is a programming error and
// panics.
func OpsTable(rows []OpsRow, columns ...string) (headers []string, table [][]string) {
	cells := make([]func(OpsRow) string, len(columns))
	for i, spec := range columns {
		header, name, renamed := strings.Cut(spec, "=")
		if !renamed {
			name = header
		}
		cell, ok := opsColumns[name]
		if !ok {
			panic(fmt.Sprintf("experiments: unknown ops column %q", name))
		}
		headers = append(headers, header)
		cells[i] = cell
	}
	for _, r := range rows {
		line := make([]string, len(cells))
		for i, cell := range cells {
			line[i] = cell(r)
		}
		table = append(table, line)
	}
	return headers, table
}

// Prices are the unit prices an operational row is billed at — the
// "computation, storage and bandwidth" components the paper's final remarks
// say a sharded Ethereum must price. Units are abstract; only ratios matter
// between methods. A state payload outweighs a control message, and
// re-homing an account (metadata, routing) costs about as much as a slot.
type Prices struct {
	ExecCost       float64 // one replayed transaction
	MsgCost        float64 // one cross-shard message
	SlotMoveCost   float64 // one storage slot relocated
	VertexMoveCost float64 // one account a wave relocates, on top of its slots
}

// DatacenterPrices and WideAreaPrices are the costs figure's two presets: a
// wide-area message costs ten times a datacenter one, which shifts the
// optimum toward the low-cut methods.
var (
	DatacenterPrices = Prices{ExecCost: 1, MsgCost: 10, SlotMoveCost: 25, VertexMoveCost: 20}
	WideAreaPrices   = Prices{ExecCost: 1, MsgCost: 100, SlotMoveCost: 25, VertexMoveCost: 20}
)

// Bill is one row's operating cost on the paper's three axes, plus the
// execution every partition pays.
type Bill struct {
	Execution float64
	// Coordination prices the traffic multi-shard transactions cause:
	// receipts under ModelReceipts, the inline sender moves under
	// ModelMigration.
	Coordination float64
	// Relocation prices what repartition waves and merge drains moved.
	Relocation float64
	// Imbalance prices the capacity load skew strands in idle shards. It is
	// the one input taken from the simulator (its dynamic balance): the
	// chain keeps no per-shard load.
	Imbalance float64
}

// Total returns the sum of the components.
func (b Bill) Total() float64 {
	return b.Execution + b.Coordination + b.Relocation + b.Imbalance
}

// Bill prices what the live chain measured for r.
func (p Prices) Bill(r OpsRow) Bill {
	res := r.Result
	b := Bill{Execution: float64(res.Replayed) * p.ExecCost}
	b.Coordination = float64(res.Totals.Messages-res.WaveMigrations)*p.MsgCost +
		float64(res.Totals.MigratedSlots-res.WaveMigratedSlots)*p.SlotMoveCost
	b.Relocation = float64(res.WaveMigrations)*p.VertexMoveCost +
		float64(res.WaveMigratedSlots)*p.SlotMoveCost
	b.Imbalance = max(res.Sim.OverallDynamicBalance-1, 0) * b.Execution / float64(res.K)
	return b
}
