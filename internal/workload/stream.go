package workload

import (
	"io"

	"ethpart/internal/graph"
	"ethpart/internal/trace"
	"ethpart/internal/types"
)

// Stream adapts a Generator to the trace.RecordSource seam: it drives the
// generator block by block and yields each block's records in arrival order,
// stamped with per-action arrival times (open-loop compositions) or the
// block time (the era composition). This is the pipe every consumer —
// replay, the operational bridge, trace files — drinks from.
type Stream struct {
	g          *Generator
	reg        *trace.Registry
	isContract func(types.Address) bool
	buf        []trace.Record
	pos        int
	err        error
	done       bool
}

// Stream returns a record stream over the generator's remaining schedule.
// The stream owns the generator; interleaving NextBlock calls with Read
// corrupts it.
func (g *Generator) Stream() *Stream {
	st := g.state
	return &Stream{
		g:          g,
		reg:        trace.NewRegistry(),
		isContract: func(a types.Address) bool { return len(st.GetCode(a)) > 0 },
	}
}

// Read implements trace.RecordSource.
func (s *Stream) Read() (trace.Record, error) {
	for s.pos >= len(s.buf) {
		if s.err != nil {
			return trace.Record{}, s.err
		}
		if s.done {
			return trace.Record{}, io.EOF
		}
		block, ok, err := s.g.NextBlock()
		if err != nil {
			s.err = err
			return trace.Record{}, err
		}
		if !ok {
			s.done = true
			return trace.Record{}, io.EOF
		}
		if block == nil {
			continue // schedule gap
		}
		s.buf = trace.FromReceipts(block.Number, block.Time,
			s.g.BlockArrivalTimes(), block.Receipts, s.reg, s.isContract)
		s.pos = 0
	}
	rec := s.buf[s.pos]
	s.pos++
	return rec, nil
}

// Registry returns the stream's vertex registry (valid incrementally;
// complete once Read returns io.EOF).
func (s *Stream) Registry() *trace.Registry { return s.reg }

// Generator returns the underlying generator.
func (s *Stream) Generator() *Generator { return s.g }

// StorageSlots computes the per-contract storage footprint at the end of
// the history; call after the stream is drained.
func (s *Stream) StorageSlots() map[graph.VertexID]int {
	st := s.g.state
	slots := make(map[graph.VertexID]int)
	for id := uint64(0); id < uint64(s.reg.Len()); id++ {
		if !s.reg.IsContract(id) {
			continue
		}
		if addr, ok := s.reg.Address(id); ok {
			if n := st.StorageSize(addr); n > 0 {
				slots[graph.VertexID(id)] = n
			}
		}
	}
	return slots
}
