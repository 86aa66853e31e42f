package dirserve

import (
	"sync"

	"ethpart/internal/directory"
)

// Replica applies the primary's committed batches to a local directory,
// idempotently by primary epoch number. Delivery may be at-least-once and
// out of order: a batch at or below the applied watermark is a duplicate
// and is dropped; a batch ahead of the next contiguous epoch is buffered
// and applied the moment the gap fills. Application therefore happens in
// exactly the primary's commit order, so the replica's directory converges
// byte-identically to the primary's view however the transport mangled
// delivery.
//
// The commit target is a directory.Committer: the replica's Directory
// itself, or a fault.FlakyDirectory wrapping it so chaos schedules can
// stall and fail replica-side commits too.
type Replica struct {
	c directory.Committer

	mu      sync.Mutex
	applied uint64
	pending map[uint64]applyRec
}

type applyRec struct {
	b    directory.Batch
	wave bool
}

// NewReplica returns a replica applying through c, with nothing applied
// yet (the primary's first commit is epoch 1).
func NewReplica(c directory.Committer) *Replica {
	return &Replica{c: c, pending: make(map[uint64]applyRec)}
}

// Apply offers one shipped commit. It returns the replica's contiguous
// applied watermark — the ack the fan-out uses to measure per-replica
// apply lag. Safe for concurrent use.
func (r *Replica) Apply(epoch uint64, b directory.Batch, wave bool) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	// A duplicate: already applied, or already buffered.
	if _, ok := r.pending[epoch]; ok || epoch <= r.applied {
		return r.applied, nil
	}
	r.pending[epoch] = applyRec{b: b, wave: wave}
	for {
		rec, ok := r.pending[r.applied+1]
		if !ok {
			return r.applied, nil
		}
		delete(r.pending, r.applied+1)
		if _, err := r.c.CommitBatch(rec.b, rec.wave); err != nil {
			return r.applied, err
		}
		r.applied++
	}
}

// Applied returns the contiguous applied watermark.
func (r *Replica) Applied() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applied
}
