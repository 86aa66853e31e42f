package dirserve

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"

	"ethpart/internal/directory"
	"ethpart/internal/graph"
)

// ServerConfig wires one serving process.
type ServerConfig struct {
	// Dir is the directory snapshots are served from. Required.
	Dir *directory.Directory
	// Hints, when non-nil, receives a promotion hint for every lookup that
	// hit the cold tier. On the primary the publisher drains the ring
	// directly; on a replica the drained hints ride home on apply acks.
	Hints *directory.HintRing
	// Replica, when non-nil, lets this server accept msgApply frames — the
	// epoch fan-out feed of a replica process. Lookup-only servers (the
	// primary front end) leave it nil and reject applies.
	Replica *Replica
}

// Server is one serving process: an accept loop over a real listener, one
// goroutine per connection, all answering from lock-free directory
// snapshots. Lookups never take a lock; the only mutex in the serving path
// is the replica's apply ordering.
type Server struct {
	cfg ServerConfig
	l   net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// Serving counters (atomic; read via their accessors).
	lookups  atomic.Int64 // individual IDs answered
	coldHits atomic.Int64 // answers that came from the cold tier
}

// Serve starts serving on l and returns immediately.
func Serve(l net.Listener, cfg ServerConfig) *Server {
	s := &Server{cfg: cfg, l: l, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener's address (dial this).
func (s *Server) Addr() string { return s.l.Addr().String() }

// Lookups and ColdHits report cumulative serving counters.
func (s *Server) Lookups() int64  { return s.lookups.Load() }
func (s *Server) ColdHits() int64 { return s.coldHits.Load() }

// Close stops the accept loop, closes every live connection and waits for
// the handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.l.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.l.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

func (s *Server) dropConn(conn net.Conn) {
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// handle serves one connection until EOF or a protocol error.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)
	br := newReader(conn)
	bw := newWriter(conn)
	var in, out []byte
	var slab directory.MoveSlab
	for {
		frame, err := readFrame(br, in)
		if err != nil {
			return
		}
		in = frame
		c := cursor{p: frame}
		switch c.u8() {
		case msgLookup:
			out = s.answerLookup(&c, out[:0])
		case msgApply:
			out = s.answerApply(&c, out[:0], &slab)
		default:
			return // unknown message poisons the connection
		}
		if c.err != nil || out == nil {
			return
		}
		if err := writeFrame(bw, out); err != nil {
			return
		}
	}
}

// answerLookup serves one snapshot-pinned batch lookup. The whole batch is
// answered from a single snapshot: either the exact journal-pinned epoch,
// or the Resolve view (journaled if retained, newest-with-stale-flag if
// evicted). Cold-tier hits push promotion hints.
func (s *Server) answerLookup(c *cursor, out []byte) []byte {
	minEpoch := c.u64()
	flags := c.u8()
	n := c.count(8)
	if c.err != nil {
		return nil
	}

	status := statusOK
	var snap *directory.Snapshot
	stale := false
	if flags&lookupExact != 0 {
		pinned, err := s.cfg.Dir.PinEpoch(minEpoch)
		switch {
		case err == nil:
			snap = pinned
		case errors.Is(err, directory.ErrEpochEvicted) && s.cfg.Dir.Epoch() < minEpoch:
			// Not evicted — never published here yet: a lagging replica.
			status = statusBehind
		case errors.Is(err, directory.ErrEpochEvicted):
			status = statusEvicted
		default:
			return nil
		}
	} else if minEpoch == 0 {
		// Epoch 0 is the wire's "no pin yet" sentinel: a fresh client wants
		// the newest view, not the journaled empty initial snapshot.
		snap = s.cfg.Dir.Current()
	} else {
		snap, stale = s.cfg.Dir.Resolve(minEpoch)
		if snap.Epoch() < minEpoch {
			status = statusBehind
		}
	}

	out = append(out, msgLookupResp, status)
	if status != statusOK {
		out = appendU64(out, s.cfg.Dir.Epoch())
		out = append(out, 0)
		out = appendU32(out, 0)
		return out
	}
	out = appendU64(out, snap.Epoch())
	if stale {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	out = appendU32(out, uint32(n))
	cold := int64(0)
	for i := 0; i < n; i++ {
		v := graph.VertexID(c.u64())
		sh, isCold, ok := snap.LookupTier(v)
		if !ok {
			sh = directory.NoShard
		} else if isCold {
			cold++
			if s.cfg.Hints != nil {
				s.cfg.Hints.Push(v)
			}
		}
		out = appendU32(out, uint32(int32(sh)))
	}
	if c.err != nil {
		return nil
	}
	s.lookups.Add(int64(n))
	s.coldHits.Add(cold)
	return out
}

// answerApply applies one fan-out shipment, decoded with the connection's
// slab, and acks with the replica's applied watermark plus any promotion
// hints collected since the last ack.
func (s *Server) answerApply(c *cursor, out []byte, slab *directory.MoveSlab) []byte {
	epoch := c.u64()
	wave := c.u8() != 0
	b := c.decodeBatch(slab)
	if c.err != nil || s.cfg.Replica == nil {
		return nil
	}
	applied, err := s.cfg.Replica.Apply(epoch, b, wave)
	out = append(out, msgApplyResp)
	if err != nil {
		out = append(out, 1)
		out = appendU64(out, applied)
		msg := err.Error()
		out = appendU32(out, uint32(len(msg)))
		out = append(out, msg...)
		return out
	}
	out = append(out, 0)
	out = appendU64(out, applied)
	out = appendU32(out, 0) // no error text
	// Piggyback locally collected promotion hints on the ack: the fan-out
	// pushes them into the primary's ring, closing the promotion loop for
	// lookups served by this replica.
	nPos := len(out)
	out = appendU32(out, 0)
	if s.cfg.Hints != nil {
		n := uint32(0)
		s.cfg.Hints.Drain(func(v graph.VertexID) {
			out = appendU64(out, uint64(v))
			n++
		})
		out[nPos] = byte(n >> 24)
		out[nPos+1] = byte(n >> 16)
		out[nPos+2] = byte(n >> 8)
		out[nPos+3] = byte(n)
	}
	return out
}
