// Package costmodel translates simulation results into system resource
// costs. The paper's final remarks identify three components that sharding
// a generic framework like Ethereum must price — computation, storage and
// bandwidth (citing Chepurnoy et al., "A systematic approach to
// cryptocurrency fees") — and its introduction identifies the two classes
// of multi-shard execution: coordinated distributed execution (Spanner,
// S-SMR) and state movement to one shard (dynamic SMR). This package
// implements both cost models so the partitioning methods can be compared
// in the units an operator pays for, not just edge-cut percentages.
package costmodel

import (
	"fmt"

	"ethpart/internal/sim"
)

// Params prices the primitive operations. Units are abstract "cost units";
// only ratios matter when comparing methods. Defaults follow the ratios of
// the components: a wide-area coordination round costs about an order of
// magnitude more than local execution, and moving a storage slot costs
// about as much as a message since both traverse the network.
type Params struct {
	// ExecCost is the cost of executing one interaction inside a shard.
	ExecCost float64
	// CoordRounds is the number of extra cross-shard coordination rounds a
	// multi-shard transaction needs under coordinated execution (two-phase
	// commit needs 2).
	CoordRounds int
	// MsgCost is the cost of one cross-shard message (bandwidth+latency).
	MsgCost float64
	// SlotMoveCost is the cost of relocating one storage slot between
	// shards (bandwidth + re-commitment).
	SlotMoveCost float64
	// VertexMoveCost is the fixed cost of re-homing a vertex (account
	// metadata, routing update), paid per move on top of its slots.
	VertexMoveCost float64
}

// DefaultParams returns the ratios described above.
func DefaultParams() Params {
	return Params{
		ExecCost:       1,
		CoordRounds:    2,
		MsgCost:        10,
		SlotMoveCost:   25, // a state payload outweighs a control message
		VertexMoveCost: 20,
	}
}

// WANParams prices coordination for wide-area deployments, where a
// cross-shard round costs an order of magnitude more than in a datacenter.
// Comparing DefaultParams against WANParams shows when cut reduction pays
// for relocation: the more expensive coordination is, the stronger the
// case for the low-cut (METIS-family) methods.
func WANParams() Params {
	p := DefaultParams()
	p.MsgCost = 100
	return p
}

// Model selects how multi-shard transactions are handled.
type Model int

const (
	// Coordinated executes a multi-shard transaction in place with the
	// involved shards running a commit protocol (Spanner, S-SMR).
	Coordinated Model = iota + 1
	// StateMovement relocates the needed state to one shard, which then
	// executes locally (dynamic scalable SMR).
	StateMovement
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case Coordinated:
		return "coordinated"
	case StateMovement:
		return "state-movement"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Breakdown itemises a run's cost.
type Breakdown struct {
	Model Model
	// Execution is the baseline compute cost of every interaction.
	Execution float64
	// Coordination is the messaging cost of multi-shard transactions
	// (Coordinated model) or of on-demand state pulls (StateMovement).
	Coordination float64
	// Relocation is the cost of repartitioning moves: vertices re-homed
	// plus their storage slots.
	Relocation float64
	// Imbalance is the capacity wasted by load skew: provisioning is set
	// by the hottest shard, so (balance − 1) of the execution cost is
	// stranded in idle shards.
	Imbalance float64
}

// Total returns the sum of all components.
func (b Breakdown) Total() float64 {
	return b.Execution + b.Coordination + b.Relocation + b.Imbalance
}

// Cost prices a simulation result under a model.
//
// The estimate uses the run-level aggregates of the result: every executed
// interaction pays ExecCost; the cross-shard fraction pays the model's
// per-transaction overhead; every repartitioning move pays vertex and slot
// relocation; and load imbalance strands capacity in proportion to
// (dynamic balance − 1).
func Cost(res *sim.Result, model Model, p Params) Breakdown {
	var interactions float64
	for _, w := range res.Windows {
		interactions += float64(w.Interactions)
	}
	crossShard := interactions * res.OverallDynamicCut

	b := Breakdown{Model: model}
	b.Execution = interactions * p.ExecCost

	switch model {
	case Coordinated:
		// Each multi-shard transaction runs CoordRounds extra message
		// rounds between the two involved shards.
		b.Coordination = crossShard * float64(p.CoordRounds) * p.MsgCost
	case StateMovement:
		// Each multi-shard transaction pulls the remote party's state:
		// one message plus a slot-sized payload on average. (The average
		// slot payload is folded into SlotMoveCost's ratio to MsgCost.)
		b.Coordination = crossShard * (p.MsgCost + p.SlotMoveCost)
	}

	b.Relocation = float64(res.TotalMoves)*p.VertexMoveCost +
		float64(res.TotalMovedSlots)*p.SlotMoveCost
	if res.OverallDynamicBalance > 1 {
		b.Imbalance = (res.OverallDynamicBalance - 1) * b.Execution / float64(res.K)
	}
	return b
}
