package workload

import (
	"io"

	"ethpart/internal/graph"
	"ethpart/internal/trace"
)

// Stream adapts a Generator to the trace.RecordSource seam: it drives the
// generator block by block and yields each block's records in arrival order,
// stamped with per-action arrival times (open-loop compositions) or the
// block time (the era composition). This is the pipe every consumer —
// replay, the operational bridge, trace files — drinks from.
type Stream struct {
	g    *Generator
	buf  []trace.Record
	pos  int
	err  error
	done bool
}

// Stream returns a record stream over the generator's remaining schedule.
// The stream owns the generator; interleaving NextBlock calls with Read
// corrupts it.
func (g *Generator) Stream() *Stream { return &Stream{g: g} }

// Read implements trace.RecordSource. It yields one block's records at a
// time from the buffer the generator converts each block into.
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
		s.buf = block.Records
		s.pos = 0
	}
	rec := s.buf[s.pos]
	s.pos++
	return rec, nil
}

// Registry returns the stream's vertex registry (valid incrementally;
// complete once Read returns io.EOF).
func (s *Stream) Registry() *trace.Registry { return s.g.reg }

// Generator returns the underlying generator.
func (s *Stream) Generator() *Generator { return s.g }

// StorageSlots computes the per-contract storage footprint at the end of
// the history; call after the stream is drained.
func (s *Stream) StorageSlots() map[graph.VertexID]int {
	st := s.g.state
	slots := make(map[graph.VertexID]int)
	reg := s.g.reg
	for id := uint64(0); id < uint64(reg.Len()); id++ {
		if !reg.IsContract(id) {
			continue
		}
		if addr, ok := reg.Address(id); ok {
			if n := st.StorageSize(addr); n > 0 {
				slots[graph.VertexID(id)] = n
			}
		}
	}
	return slots
}
