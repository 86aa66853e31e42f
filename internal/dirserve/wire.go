// Package dirserve is the networked directory serving tier: it puts the
// in-process placement directory (internal/directory) behind real sockets
// so more than one machine can answer "which shard owns account X?".
//
// Three parts, all speaking one length-prefixed binary protocol over
// stdlib net (TCP; no third-party dependencies):
//
//   - Server exposes snapshot-pinned batch lookups: a batch is answered
//     from exactly one snapshot, every response carries the serving epoch,
//     and a client whose pinned epoch aged out of the journal re-pins
//     through the journal-backed Resolve path with the staleness flag
//     propagated on the wire.
//   - Fanout is a directory.Committer that ships every committed batch —
//     including resize batches carrying a shard-count change — to N
//     replica processes, tagged with the primary's epoch number. A Replica
//     applies them idempotently by epoch (duplicates are dropped,
//     reordered arrivals are buffered until contiguous), so at-least-once,
//     out-of-order delivery converges byte-identically and readers can pin
//     "epoch ≥ e" against any replica.
//   - Promotion-on-access: a Server given a hint ring (Config.Hints, a
//     bounded lock-free MPSC directory.HintRing) pushes every cold-tier
//     hit into it, so no write lock ever appears on the read path. A
//     replica's hints ride home on its apply acks into the ring NewFanout
//     was given, and a directory.Publisher drains the ring it was attached
//     to (AttachHints) into each commit's Promote lane. The loop is wired
//     by whoever owns the three; no binary does today — chaos and the
//     ledger pass nil rings — and TestColdPromotionOverWire runs it end to
//     end.
//
// Wire format: every frame is a big-endian uint32 payload length followed
// by the payload; the payload's first byte is the message type. Integers
// are big-endian, vertex IDs uint64, shards int32 (-1 = unmapped). See
// DESIGN.md §6 for the field-by-field layout.
package dirserve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"

	"ethpart/internal/directory"
	"ethpart/internal/graph"
)

// Message types.
const (
	msgLookup     byte = 1 // client → server: batch lookup
	msgLookupResp byte = 2
	msgApply      byte = 3 // fan-out → replica: apply one committed batch
	msgApplyResp  byte = 4
)

// Lookup response status.
const (
	statusOK byte = 0
	// statusEvicted: the exact-pinned epoch aged out of the journal; the
	// client must re-pin through the resolve path.
	statusEvicted byte = 1
	// statusBehind: this server has not reached the requested epoch yet
	// (a lagging replica); the client should try another server.
	statusBehind byte = 2
)

// lookupExact flags an exact journal pin; without it the server resolves:
// the pinned epoch's journaled snapshot if retained, else the newest view
// with the stale flag set.
const lookupExact byte = 1

// maxFrame bounds a frame payload; a length prefix beyond it poisons the
// connection (protects against garbage peers allocating gigabytes).
const maxFrame = 1 << 26

// frameChunk bounds how far readFrame's buffer grows ahead of the bytes
// that have arrived: a length prefix alone commits the reader to at most
// this much, not to the maxFrame it may claim.
const frameChunk = 1 << 16

func newReader(c net.Conn) *bufio.Reader { return bufio.NewReaderSize(c, 1<<16) }
func newWriter(c net.Conn) *bufio.Writer { return bufio.NewWriterSize(c, 1<<16) }

// writeFrame encodes the length prefix into bufio's own buffer: a [4]byte
// handed to Write would escape through the io.Writer, one heap object per
// frame.
func writeFrame(w *bufio.Writer, payload []byte) error {
	if _, err := w.Write(appendU32(w.AvailableBuffer(), uint32(len(payload)))); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return w.Flush()
}

// readFrame reads one frame payload, reusing buf when it fits. The length
// prefix is peeked in bufio's own buffer, for the reason writeFrame gives.
// A payload longer than buf grows it as the bytes arrive, by at most
// frameChunk or its own size at a time, so the buffer stays within about
// twice what the peer has sent; a body cut short is io.ErrUnexpectedEOF.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > maxFrame {
		return nil, fmt.Errorf("dirserve: frame of %d bytes exceeds limit", n)
	}
	if _, err := r.Discard(4); err != nil {
		return nil, err
	}
	size := int(n)
	buf = buf[:0]
	for len(buf) < size {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(size, max(2*cap(buf), frameChunk)))
			copy(grown, buf)
			buf = grown
		}
		end := min(size, cap(buf))
		if _, err := io.ReadFull(r, buf[len(buf):end]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		buf = buf[:end]
	}
	return buf, nil
}

// Append-style encoders.

func appendU32(p []byte, v uint32) []byte {
	return append(p, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU64(p []byte, v uint64) []byte {
	return append(p, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// appendBatch encodes a directory.Batch.
func appendBatch(p []byte, b directory.Batch) []byte {
	p = appendU32(p, uint32(int32(b.Shards)))
	p = appendU32(p, uint32(len(b.Set)))
	for _, m := range b.Set {
		p = appendU64(p, uint64(m.V))
		p = appendU32(p, uint32(int32(m.To)))
	}
	p = appendU32(p, uint32(len(b.SetCold)))
	for _, m := range b.SetCold {
		p = appendU64(p, uint64(m.V))
		p = appendU32(p, uint32(int32(m.To)))
	}
	p = appendU32(p, uint32(len(b.Retire)))
	for _, v := range b.Retire {
		p = appendU64(p, uint64(v))
	}
	p = appendU32(p, uint32(len(b.Promote)))
	for _, v := range b.Promote {
		p = appendU64(p, uint64(v))
	}
	return p
}

// cursor is a bounds-checked big-endian reader over a frame payload; the
// first decode error sticks and every later read returns zero.
type cursor struct {
	p   []byte
	err error
}

func (c *cursor) fail() {
	if c.err == nil {
		c.err = fmt.Errorf("dirserve: truncated frame")
	}
}

func (c *cursor) u8() byte {
	if c.err != nil || len(c.p) < 1 {
		c.fail()
		return 0
	}
	v := c.p[0]
	c.p = c.p[1:]
	return v
}

func (c *cursor) u32() uint32 {
	if c.err != nil || len(c.p) < 4 {
		c.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(c.p)
	c.p = c.p[4:]
	return v
}

func (c *cursor) u64() uint64 {
	if c.err != nil || len(c.p) < 8 {
		c.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(c.p)
	c.p = c.p[8:]
	return v
}

// count reads a collection length and sanity-checks it against the bytes
// remaining (each element needs at least elem bytes), so a corrupt length
// cannot force a giant allocation.
func (c *cursor) count(elem int) int {
	n := int(c.u32())
	if c.err == nil && n*elem > len(c.p) {
		c.fail()
		return 0
	}
	return n
}

// decodeBatch decodes what appendBatch wrote, carving the Set and SetCold
// lanes from slab. A decoded batch may outlive the frame and the next
// decodes — the replica parks out-of-order batches and a flaky committer
// stalls waves — so its lanes are carved, never a reused buffer.
func (c *cursor) decodeBatch(slab *directory.MoveSlab) directory.Batch {
	var b directory.Batch
	b.Shards = int(int32(c.u32()))
	if n := c.count(12); n > 0 {
		b.Set = slab.Carve(n)[:n]
		for i := range b.Set {
			b.Set[i] = directory.Move{V: graph.VertexID(c.u64()), To: int(int32(c.u32()))}
		}
	}
	if n := c.count(12); n > 0 {
		b.SetCold = slab.Carve(n)[:n]
		for i := range b.SetCold {
			b.SetCold[i] = directory.Move{V: graph.VertexID(c.u64()), To: int(int32(c.u32()))}
		}
	}
	if n := c.count(8); n > 0 {
		b.Retire = make([]graph.VertexID, n)
		for i := range b.Retire {
			b.Retire[i] = graph.VertexID(c.u64())
		}
	}
	if n := c.count(8); n > 0 {
		b.Promote = make([]graph.VertexID, n)
		for i := range b.Promote {
			b.Promote[i] = graph.VertexID(c.u64())
		}
	}
	return b
}
