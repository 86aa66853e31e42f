// Package trace defines the interaction-record format of the study's
// dataset — the paper publishes its extracted Ethereum trace "in easily
// understandable format" and this package is that format for the synthetic
// reproduction: one record per interaction (outer transaction, internal
// call or contract creation) with integer vertex IDs, plus a streaming CSV
// encoder and decoder.
package trace

import (
	"errors"
	"io"

	"ethpart/internal/chain"
	"ethpart/internal/evm"
	"ethpart/internal/graph"
	"ethpart/internal/types"
)

// Record is one interaction: a directed edge candidate for the blockchain
// graph, as in the paper's §II-B. The fields are ordered widest first so
// the record packs into 40 bytes (TestRecordLayout): a generated history
// is held whole, one Record per interaction.
type Record struct {
	// Time is the block's Unix timestamp.
	Time int64
	// From and To are registry vertex IDs, below graph.MaxVertexID.
	From uint64
	To   uint64
	// Value is the transferred wei, clamped to uint64.
	Value uint64
	// Block is the block number the interaction executed in, below 2³²
	// (CSVReader refuses a larger one as a RecordError).
	Block uint32
	// Kind is the interaction kind: tx, call or create.
	Kind evm.CallKind
	// FromContract and ToContract carry endpoint kinds so a trace is
	// self-contained.
	FromContract bool
	ToContract   bool
}

// FromKind returns the graph kind of the source endpoint.
func (r *Record) FromKind() graph.Kind {
	if r.FromContract {
		return graph.KindContract
	}
	return graph.KindAccount
}

// ToKind returns the graph kind of the destination endpoint.
func (r *Record) ToKind() graph.Kind {
	if r.ToContract {
		return graph.KindContract
	}
	return graph.KindAccount
}

// Apply adds the record's interaction to g with weight 1.
func (r *Record) Apply(g *graph.Graph) error {
	return g.AddInteraction(graph.VertexID(r.From), graph.VertexID(r.To),
		r.FromKind(), r.ToKind(), 1)
}

// RecordSource is the streaming seam between record producers — the
// workload pipeline, trace files, converted real datasets — and every
// consumer (replay, the operational bridge, figure generation). Read
// returns records in arrival order and io.EOF at the end of the stream;
// like CSVReader, a source may surface per-record *RecordError values the
// caller can log and skip without losing the tail of the stream.
type RecordSource interface {
	Read() (Record, error)
}

// ReadAll drains src into a slice, skipping (and counting) per-record
// errors. Non-record failures abort.
func ReadAll(src RecordSource) ([]Record, int64, error) {
	var (
		out     []Record
		skipped int64
	)
	for {
		rec, err := src.Read()
		if errors.Is(err, io.EOF) {
			return out, skipped, nil
		}
		var re *RecordError
		if errors.As(err, &re) {
			skipped++
			continue
		}
		if err != nil {
			return nil, skipped, err
		}
		out = append(out, rec)
	}
}

// Registry assigns dense integer vertex IDs to addresses, exactly like the
// anonymised IDs of the published dataset (Fig. 2's "32643", "9703", …),
// and remembers which vertices are contracts.
type Registry struct {
	ids      map[types.Address]uint64
	addrs    []types.Address
	contract []bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{ids: make(map[types.Address]uint64)}
}

// ID returns the vertex ID of addr, assigning the next free ID on first
// sight.
func (r *Registry) ID(addr types.Address) uint64 {
	if id, ok := r.ids[addr]; ok {
		return id
	}
	id := uint64(len(r.addrs))
	r.ids[addr] = id
	r.addrs = append(r.addrs, addr)
	r.contract = append(r.contract, false)
	return id
}

// Lookup returns the vertex ID of addr without assigning one.
func (r *Registry) Lookup(addr types.Address) (uint64, bool) {
	id, ok := r.ids[addr]
	return id, ok
}

// Address returns the address of vertex id.
func (r *Registry) Address(id uint64) (types.Address, bool) {
	if id >= uint64(len(r.addrs)) {
		return types.Address{}, false
	}
	return r.addrs[id], true
}

// MarkContract flags id as a contract vertex.
func (r *Registry) MarkContract(id uint64) {
	if id < uint64(len(r.contract)) {
		r.contract[id] = true
	}
}

// IsContract reports whether id is a contract vertex.
func (r *Registry) IsContract(id uint64) bool {
	return id < uint64(len(r.contract)) && r.contract[id]
}

// Len returns the number of registered vertices.
func (r *Registry) Len() int { return len(r.addrs) }

// AppendReceipts converts a block's receipts into trace records, appends
// them to dst and returns the extended slice, assigning vertex IDs through
// reg. Creations mark the target as a contract; calls mark it when
// isContract reports code at the address (internal calls to plain accounts
// are account edges, as in Fig. 2). times carries one arrival timestamp per
// receipt for open-loop histories (the instant the transaction's logical
// action arrived, which the block merely batches), and every trace record
// of receipt i is stamped with times[i]. A nil times stamps every record
// with blockTime — the closed-loop era semantics, where actions arrive
// exactly at the block they execute in.
func AppendReceipts(dst []Record, blockNum uint32, blockTime int64, times []int64,
	receipts []chain.Receipt, reg *Registry, isContract func(types.Address) bool) []Record {

	for ri := range receipts {
		recTime := blockTime
		if times != nil {
			recTime = times[ri]
		}
		for _, tr := range receipts[ri].Traces {
			fromID := reg.ID(tr.From)
			toID := reg.ID(tr.To)
			switch tr.Kind {
			case evm.KindCreate:
				reg.MarkContract(toID)
			case evm.KindTransaction, evm.KindCall:
				if isContract != nil && isContract(tr.To) {
					reg.MarkContract(toID)
				}
			}
			var value uint64
			if tr.Value.IsUint64() {
				value = tr.Value.Uint64()
			} else {
				value = ^uint64(0)
			}
			dst = append(dst, Record{
				Block: blockNum, Time: recTime, Kind: tr.Kind,
				From: fromID, To: toID,
				FromContract: reg.IsContract(fromID),
				ToContract:   reg.IsContract(toID),
				Value:        value,
			})
		}
	}
	return dst
}
