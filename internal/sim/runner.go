package sim

import (
	"fmt"

	"ethpart/internal/graph"
	"ethpart/internal/trace"
	"ethpart/internal/workload"
)

// GeneratedTrace is a fully materialised synthetic history: the record
// stream plus the lookups simulators need.
type GeneratedTrace struct {
	Records  []trace.Record
	Registry *trace.Registry
	// storageSlots maps vertex IDs to final storage footprints.
	storageSlots map[graph.VertexID]int
}

// StorageSlots reports the storage footprint of vertex v at the end of the
// history (an upper bound for mid-history moves, which is the conservative
// direction for the paper's "moving a contract moves its storage" point).
func (g *GeneratedTrace) StorageSlots(v graph.VertexID) int {
	return g.storageSlots[v]
}

// NewGeneratedTrace wraps an externally built record stream (synthetic
// drifting-era traces, converted real traces) in the form replays and the
// operational bridge consume. reg must cover every From/To ID of records;
// slots may be nil (no contract carries storage) or map vertex IDs to
// their synthetic storage footprints.
func NewGeneratedTrace(records []trace.Record, reg *trace.Registry, slots map[graph.VertexID]int) *GeneratedTrace {
	return &GeneratedTrace{Records: records, Registry: reg, storageSlots: slots}
}

// Generate runs the era workload composition to completion and
// materialises the record stream. Generating once and replaying under many
// method configurations keeps method comparisons on identical histories.
func Generate(cfg workload.Config) (*GeneratedTrace, error) {
	gen, err := workload.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("sim: building generator: %w", err)
	}
	return Collect(gen.Stream())
}

// GenerateScenario runs a scenario composition to completion and
// materialises the record stream.
func GenerateScenario(sc workload.Scenario) (*GeneratedTrace, error) {
	gen, err := workload.NewScenario(sc)
	if err != nil {
		return nil, fmt.Errorf("sim: building scenario generator: %w", err)
	}
	return Collect(gen.Stream())
}

// Collect drains a workload stream into a materialised trace (records,
// registry and final storage footprints).
func Collect(s *workload.Stream) (*GeneratedTrace, error) {
	records, _, err := trace.ReadAll(s) // workload streams emit no per-record errors
	if err != nil {
		return nil, fmt.Errorf("sim: generating block: %w", err)
	}
	return &GeneratedTrace{
		Records:      records,
		Registry:     s.Registry(),
		storageSlots: s.StorageSlots(),
	}, nil
}

// NewOver returns a simulator for cfg that will process exactly gt's
// records, in order. A nil cfg.StorageSlots defaults to gt's footprints.
// When every wave of the configuration depends on the records alone
// (METIS and R-METIS in full history at fixed k, and METIS in decay mode at
// fixed k when a P is spare; see occupySpareP), the waves are partitioned
// ahead of the simulator, several at a time, by a lookahead; the simulator then
// computes what Process alone would. The caller must Close the simulator
// on every path once it is done with it, which joins the lookahead.
//
// A full-history cumulative graph ends holding every vertex of gt's
// registry, so NewOver sizes its vertex records for them once (graph.Grow)
// instead of letting them double their way there. A decaying graph's live
// set is bounded by the horizon instead, and keeps growing on demand; so
// does every graph of a trace without a registry.
func NewOver(gt *GeneratedTrace, cfg Config) (*Simulator, error) {
	if cfg.StorageSlots == nil {
		cfg.StorageSlots = gt.StorageSlots
	}
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if !s.decayEnabled() && gt.Registry != nil {
		s.full.Grow(gt.Registry.Len())
	}
	if s.lookaheadEligible() {
		s.startLookahead(gt.Records)
	}
	return s, nil
}

// Close ends and joins the lookahead of a simulator built by NewOver, and
// every partition it started. It is a no-op for a simulator without one,
// and on a second call.
func (s *Simulator) Close() {
	if s.ahead != nil {
		s.ahead.stop()
		s.ahead = nil
	}
}

// Replay runs one simulation configuration over a generated trace (see
// NewOver).
func Replay(gt *GeneratedTrace, cfg Config) (*Result, error) {
	s, err := NewOver(gt, cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	for _, rec := range gt.Records {
		if err := s.Process(rec); err != nil {
			return nil, fmt.Errorf("sim: processing record: %w", err)
		}
	}
	return s.Finish(), nil
}
