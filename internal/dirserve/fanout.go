package dirserve

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"ethpart/internal/directory"
	"ethpart/internal/graph"
)

// Fanout is the epoch-flip fan-out plane: a directory.Committer that
// commits through the inner committer first (normally the primary
// *directory.Directory, so the batch gets its real epoch number), then
// ships (epoch, batch) to every replica feed. Shipping is asynchronous —
// the epoch-flip stall on the primary is the local commit plus an enqueue
// — with per-replica bounded channels providing backpressure, and each
// feed's acks carry the replica's contiguous applied watermark, from which
// the per-replica apply lag (primary epoch minus acked epoch) is tracked.
//
// Fanout sits *below* the fault plane (fault.NewFlakyCommitter wraps it):
// stalled waves are shipped when they actually land, in landed order, so
// replicas see exactly the primary's commit sequence.
type Fanout struct {
	inner directory.Committer
	hints *directory.HintRing
	feeds []*feed
}

// feedQueueDepth bounds each replica's in-flight shipments; a replica
// falling further behind than this backpressures the committer.
const feedQueueDepth = 1024

type shipment struct {
	epoch uint64
	b     directory.Batch
	wave  bool
}

// feed is one replica connection and its shipping goroutine.
type feed struct {
	addr string
	conn net.Conn
	ch   chan shipment
	done chan struct{}

	err   atomic.Pointer[error]
	acked atomic.Uint64

	lagMax atomic.Uint64
	lagSum atomic.Uint64
	lagN   atomic.Uint64
}

// NewFanout dials every replica address and returns the committer. hints,
// when non-nil, receives promotion hints piggybacked on replica acks (the
// same ring the publisher drains into Promote lanes).
func NewFanout(inner directory.Committer, hints *directory.HintRing, addrs ...string) (*Fanout, error) {
	f := &Fanout{inner: inner, hints: hints}
	for _, a := range addrs {
		conn, err := net.Dial("tcp", a)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("dirserve: fan-out dial %s: %w", a, err)
		}
		fd := &feed{addr: a, conn: conn, ch: make(chan shipment, feedQueueDepth), done: make(chan struct{})}
		f.feeds = append(f.feeds, fd)
		go f.runFeed(fd)
	}
	return f, nil
}

// CommitBatch implements directory.Committer: commit locally, then ship
// the committed batch (with its real epoch) to every replica. A replica
// feed failure surfaces on the next commit — replication is not best
// effort.
func (f *Fanout) CommitBatch(b directory.Batch, wave bool) (uint64, error) {
	e, err := f.inner.CommitBatch(b, wave)
	if err != nil {
		return e, err
	}
	for _, fd := range f.feeds {
		if ferr := fd.err.Load(); ferr != nil {
			return e, fmt.Errorf("dirserve: replica %s feed failed: %w", fd.addr, *ferr)
		}
		fd.ch <- shipment{epoch: e, b: b, wave: wave}
		if lag := e - fd.acked.Load(); lag > 0 {
			if cur := fd.lagMax.Load(); lag > cur {
				fd.lagMax.CompareAndSwap(cur, lag)
			}
			fd.lagSum.Add(lag)
			fd.lagN.Add(1)
		}
	}
	return e, nil
}

// runFeed owns one replica connection: encode, write, await ack. On error
// it records the failure and keeps draining the channel so the committer
// never blocks on a dead replica.
func (f *Fanout) runFeed(fd *feed) {
	defer close(fd.done)
	bw := newWriter(fd.conn)
	br := newReader(fd.conn)
	var req, resp []byte
	push := func(v graph.VertexID) {
		if f.hints != nil {
			f.hints.Push(v)
		}
	}
	for sh := range fd.ch {
		if fd.err.Load() != nil {
			continue // drain
		}
		req = append(req[:0], msgApply)
		req = appendU64(req, sh.epoch)
		if sh.wave {
			req = append(req, 1)
		} else {
			req = append(req, 0)
		}
		req = appendBatch(req, sh.b)
		if err := writeFrame(bw, req); err != nil {
			fd.fail(err)
			continue
		}
		frame, err := readFrame(br, resp)
		if err != nil {
			fd.fail(err)
			continue
		}
		resp = frame
		applied, err := decodeApplyAck(frame, push)
		if err != nil {
			fd.fail(err)
			continue
		}
		fd.acked.Store(applied)
	}
}

// decodeApplyAck decodes a replica's msgApplyResp: its applied watermark,
// then each piggybacked promotion hint through push. A frame of another
// type, a rejected apply, a truncated frame and a hint at or above
// graph.MaxVertexID (a cold-tier hit never is one) are errors; hints before
// the fault have been pushed, which is harmless, since a hint is advisory.
func decodeApplyAck(frame []byte, push func(graph.VertexID)) (applied uint64, err error) {
	cur := cursor{p: frame}
	if cur.u8() != msgApplyResp {
		return 0, fmt.Errorf("unexpected response type")
	}
	status := cur.u8()
	applied = cur.u64()
	msgLen := cur.count(1)
	if status != 0 {
		return 0, fmt.Errorf("replica apply rejected: %s", string(cur.p[:msgLen]))
	}
	cur.p = cur.p[msgLen:]
	for n := cur.count(8); n > 0; n-- {
		v := graph.VertexID(cur.u64())
		if v >= graph.MaxVertexID {
			return 0, fmt.Errorf("promotion hint %d out of range [0,%d)", v, graph.MaxVertexID)
		}
		push(v)
	}
	if cur.err != nil {
		return 0, cur.err
	}
	return applied, nil
}

func (fd *feed) fail(err error) {
	e := fmt.Errorf("dirserve: feed %s: %w", fd.addr, err)
	fd.err.CompareAndSwap(nil, &e)
}

// Close flushes every feed (all queued shipments are sent and acked),
// closes the connections and returns the first feed error, if any.
func (f *Fanout) Close() error {
	var wg sync.WaitGroup
	for _, fd := range f.feeds {
		if fd.ch != nil {
			close(fd.ch)
		}
		wg.Add(1)
		go func(fd *feed) {
			defer wg.Done()
			if fd.done != nil {
				<-fd.done
			}
			fd.conn.Close()
		}(fd)
	}
	wg.Wait()
	for _, fd := range f.feeds {
		if err := fd.err.Load(); err != nil {
			return *err
		}
	}
	return nil
}

// FeedStat is one replica feed's apply lag, in epochs. A feed's failure is
// not here: it reaches the caller through the next CommitBatch and Close.
type FeedStat struct {
	LagMax  uint64 // worst observed apply lag
	LagMean float64
}

// FeedStats snapshots every feed.
func (f *Fanout) FeedStats() []FeedStat {
	out := make([]FeedStat, len(f.feeds))
	for i, fd := range f.feeds {
		out[i].LagMax = fd.lagMax.Load()
		if n := fd.lagN.Load(); n > 0 {
			out[i].LagMean = float64(fd.lagSum.Load()) / float64(n)
		}
	}
	return out
}
