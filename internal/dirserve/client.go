package dirserve

import (
	"bufio"
	"fmt"
	"net"

	"ethpart/internal/directory"
	"ethpart/internal/graph"
)

// Client issues snapshot-pinned batch lookups against a set of serving
// processes (the primary front end and any replicas), rotating between
// them per batch. It tracks a pinned epoch:
//
//   - the first batch resolves the newest view on some server and pins its
//     epoch;
//   - later batches pin that exact epoch (one journal-backed snapshot per
//     batch), so a sequence of batches reads one consistent version;
//   - when the pin ages out of a server's journal (statusEvicted) the
//     client re-pins through the Resolve path — the answer is the newest
//     view, the wire's stale flag records the degradation, and the new
//     epoch becomes the pin;
//   - a server that has not reached the pinned epoch yet (statusBehind, a
//     lagging replica) is skipped for the next one: the client's view
//     never moves backwards — reads are "epoch ≥ e" against any replica.
//
// A Client is not safe for concurrent use; give each reader goroutine its
// own (connections are cheap; the servers multiplex).
type Client struct {
	conns []*clientConn
	rr    int
	pin   uint64

	// Serving-quality counters.
	StaleBatches int64 // batches answered from a degraded (stale) view
	Repins       int64 // times the pin moved to a newer epoch
}

type clientConn struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	req  []byte
	resp []byte
}

// Dial connects to every addr; all must succeed.
func Dial(addrs ...string) (*Client, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("dirserve: no server addresses")
	}
	c := &Client{}
	for _, a := range addrs {
		conn, err := net.Dial("tcp", a)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("dirserve: dial %s: %w", a, err)
		}
		c.conns = append(c.conns, &clientConn{conn: conn, br: newReader(conn), bw: newWriter(conn)})
	}
	return c, nil
}

// Close closes every connection.
func (c *Client) Close() {
	for _, cc := range c.conns {
		cc.conn.Close()
	}
	c.conns = nil
}

// lookupResult is one decoded lookup response.
type lookupResult struct {
	status byte
	epoch  uint64
	stale  bool
}

// lookup performs one request/response round trip on cc, filling out with
// the per-ID shards when the status is OK.
func (cc *clientConn) lookup(minEpoch uint64, exact bool, ids []graph.VertexID, out []int32) (lookupResult, error) {
	req := append(cc.req[:0], msgLookup)
	req = appendU64(req, minEpoch)
	if exact {
		req = append(req, lookupExact)
	} else {
		req = append(req, 0)
	}
	req = appendU32(req, uint32(len(ids)))
	for _, v := range ids {
		req = appendU64(req, uint64(v))
	}
	cc.req = req
	if err := writeFrame(cc.bw, req); err != nil {
		return lookupResult{}, err
	}
	frame, err := readFrame(cc.br, cc.resp)
	if err != nil {
		return lookupResult{}, err
	}
	cc.resp = frame
	return decodeLookupResp(frame, out)
}

// decodeLookupResp decodes a server's msgLookupResp to a batch of len(out)
// IDs, filling out with their shards when the status is OK. A frame of
// another type, an unknown status, an OK answer for another number of IDs
// and a truncated frame are errors.
func decodeLookupResp(frame []byte, out []int32) (lookupResult, error) {
	cur := cursor{p: frame}
	if cur.u8() != msgLookupResp {
		return lookupResult{}, fmt.Errorf("dirserve: unexpected response type")
	}
	res := lookupResult{status: cur.u8()}
	res.epoch = cur.u64()
	res.stale = cur.u8() != 0
	n := cur.count(4)
	switch {
	case cur.err != nil:
		return lookupResult{}, cur.err
	case res.status > statusBehind:
		return lookupResult{}, fmt.Errorf("dirserve: unknown lookup status %d", res.status)
	case res.status == statusOK && n != len(out):
		return lookupResult{}, fmt.Errorf("dirserve: response carries %d shards for %d ids", n, len(out))
	case res.status == statusOK:
		for i := range out {
			out[i] = int32(cur.u32())
		}
	}
	return res, nil
}

// LookupBatch answers ids from one snapshot on some server, filling out
// (len(out) must equal len(ids); NoShard = -1 marks unmapped vertices). It
// returns the serving epoch and whether the view was a degraded (stale)
// resolve. See the type comment for the pinning protocol.
func (c *Client) LookupBatch(ids []graph.VertexID, out []int32) (epoch uint64, stale bool, err error) {
	if len(out) != len(ids) {
		return 0, false, fmt.Errorf("dirserve: out length %d != ids length %d", len(out), len(ids))
	}
	start := c.rr
	c.rr++
	// Two passes over the fleet: one server answering is enough, and a
	// fleet that is wholly behind the pin (impossible while the primary is
	// in the set) is a hard error rather than a spin.
	for i := 0; i < 2*len(c.conns); i++ {
		cc := c.conns[(start+i)%len(c.conns)]
		if c.pin != 0 {
			res, lerr := cc.lookup(c.pin, true, ids, out)
			if lerr != nil {
				return 0, false, lerr
			}
			switch res.status {
			case statusOK:
				return res.epoch, false, nil
			case statusBehind:
				continue
			}
			// Evicted: fall through to the resolve path on this same server.
		}
		res, lerr := cc.lookup(c.pin, false, ids, out)
		if lerr != nil {
			return 0, false, lerr
		}
		switch res.status {
		case statusOK:
			if res.epoch > c.pin {
				c.Repins++
			}
			c.pin = res.epoch
			if res.stale {
				c.StaleBatches++
			}
			return res.epoch, res.stale, nil
		case statusBehind:
			continue
		default:
			return 0, false, fmt.Errorf("dirserve: resolve returned status %d", res.status)
		}
	}
	return 0, false, fmt.Errorf("dirserve: no server could serve epoch ≥ %d", c.pin)
}

// NoShard re-exports the directory's unmapped sentinel for wire callers.
const NoShard = int32(directory.NoShard)
