package dirserve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"slices"
	"testing"

	"ethpart/internal/directory"
	"ethpart/internal/graph"
)

// FuzzApplyFrame feeds an arbitrary msgApply payload (everything after the
// type byte: epoch, wave flag, batch) to a replica's frame handler over a
// fresh directory — cursor.decodeBatch, then Replica.Apply. It must never
// panic; it answers with an error ack, or leaves every mapped ID below
// graph.MaxVertexID and every moved ID on the shard its frame last gave it,
// so no shard is narrowed to fit a slot; and a batch that decodes
// re-encodes with appendBatch to exactly the bytes it was decoded from.
// Seeds live in testdata/fuzz/FuzzApplyFrame.
func FuzzApplyFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		c := cursor{p: payload}
		c.u64()
		c.u8()
		batch := c.p
		var slab directory.MoveSlab
		b := c.decodeBatch(&slab)
		if c.err == nil {
			if got, want := appendBatch(nil, b), batch[:len(batch)-len(c.p)]; !bytes.Equal(got, want) {
				t.Fatalf("batch %+v re-encodes as %x, decoded from %x", b, got, want)
			}
		}

		d := directory.New(directory.Config{})
		s := &Server{cfg: ServerConfig{Dir: d, Replica: NewReplica(d)}}
		sc := cursor{p: payload}
		out := s.answerApply(&sc, nil, &slab)
		if out == nil {
			if sc.err == nil {
				t.Fatal("a decodable frame got no ack")
			}
			return // undecodable: the server drops the connection
		}
		ack := cursor{p: out}
		if typ, status := ack.u8(), ack.u8(); typ != msgApplyResp || ack.err != nil {
			t.Fatalf("ack %x is not an apply response", out)
		} else if status != 0 {
			return
		}
		view := d.Current()
		view.Each(func(v graph.VertexID, _ int) bool {
			if v >= graph.MaxVertexID {
				t.Fatalf("applied frame mapped %d, at or above %d", v, graph.MaxVertexID)
			}
			return true
		})
		if view.Epoch() == 0 {
			return // a duplicate of the epoch the replica holds: acked, not applied
		}
		// Promote and Retire move tiers, never shards, so a moved ID reads
		// back its last move: SetCold lands after Set.
		want := map[graph.VertexID]int{}
		for _, lane := range [][]directory.Move{b.Set, b.SetCold} {
			for _, m := range lane {
				want[m.V] = m.To
			}
		}
		for v, to := range want {
			if got, ok := view.Lookup(v); !ok || got != to {
				t.Fatalf("applied frame moved %d to shard %d, reads back %d,%v", v, to, got, ok)
			}
		}
	})
}

// FuzzLookupRequest feeds an arbitrary msgLookup payload (everything after
// the type byte: pinned epoch, flags, IDs) to a server's lookup handler over
// a directory with hot and cold entries and a journal that has evicted
// epochs. It must never panic; a request that decodes gets an answer the
// client's decodeLookupResp accepts; an OK answer gives every ID the shard
// the snapshot of its serving epoch gives it; and the hints pushed are
// exactly the cold hits, in request order. Seeds live in
// testdata/fuzz/FuzzLookupRequest.
func FuzzLookupRequest(f *testing.F) {
	d := directory.New(directory.Config{JournalDepth: 4})
	for e := 0; e < 6; e++ {
		b := directory.Batch{Shards: 4}
		for v := graph.VertexID(e); v < 3000; v += 7 {
			b.Set = append(b.Set, directory.Move{V: v, To: (e + int(v)) % 4})
		}
		for v := graph.VertexID(e); v < 3000; v += 11 {
			b.Retire = append(b.Retire, v)
		}
		if _, err := d.CommitBatch(b, false); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		req := cursor{p: payload}
		req.u64()
		req.u8()
		ids := make([]graph.VertexID, req.count(8))
		for i := range ids {
			ids[i] = graph.VertexID(req.u64())
		}
		hints := directory.NewHintRing(len(ids))
		s := &Server{cfg: ServerConfig{Dir: d, Hints: hints}}
		c := cursor{p: payload}
		out := s.answerLookup(&c, nil)
		if out == nil {
			if c.err == nil {
				t.Fatal("a decodable request got no answer")
			}
			return
		}
		shards := make([]int32, len(ids))
		res, err := decodeLookupResp(out, shards)
		if err != nil {
			t.Fatalf("answer %x does not decode: %v", out, err)
		}
		var pushed []graph.VertexID
		hints.Drain(func(v graph.VertexID) { pushed = append(pushed, v) })
		if res.status != statusOK {
			if len(pushed) > 0 {
				t.Fatalf("status %d answer pushed %d hints", res.status, len(pushed))
			}
			return
		}
		snap, ok := d.AtEpoch(res.epoch)
		if !ok {
			t.Fatalf("answered from epoch %d, which the journal does not hold", res.epoch)
		}
		var cold []graph.VertexID
		for i, v := range ids {
			sh, isCold, ok := snap.LookupTier(v)
			if !ok {
				sh = directory.NoShard
			} else if isCold {
				cold = append(cold, v)
			}
			if shards[i] != int32(sh) {
				t.Fatalf("id %d answered %d at epoch %d, want %d", v, shards[i], res.epoch, sh)
			}
		}
		if !slices.Equal(pushed, cold) {
			t.Fatalf("hints %v, want the cold hits %v", pushed, cold)
		}
	})
}

// FuzzLookupResp feeds an arbitrary frame to the client's decodeLookupResp,
// as the answer to a batch of n IDs. It must never panic; an answer it
// accepts has a known status; and an OK answer fills each shard from the
// frame's i-th entry. Seeds live in testdata/fuzz/FuzzLookupResp.
func FuzzLookupResp(f *testing.F) {
	f.Fuzz(func(t *testing.T, n uint8, frame []byte) {
		out := make([]int32, n)
		res, err := decodeLookupResp(frame, out)
		if err != nil {
			return
		}
		if res.status > statusBehind {
			t.Fatalf("accepted unknown status %d", res.status)
		}
		if res.status != statusOK {
			return
		}
		const head = 1 + 1 + 8 + 1 + 4
		if len(frame) < head+4*len(out) {
			t.Fatalf("%d-byte frame accepted as %d shards", len(frame), len(out))
		}
		for i, sh := range out {
			if want := int32(binary.BigEndian.Uint32(frame[head+4*i:])); sh != want {
				t.Fatalf("shard %d decoded as %d, frame holds %d", i, sh, want)
			}
		}
	})
}

// FuzzApplyAck feeds an arbitrary frame to decodeApplyAck, the fan-out's
// reader of a replica's ack. It must never panic; every hint it pushes is
// below graph.MaxVertexID; and an ack it accepts re-encodes — type, OK
// status, watermark, error text, hints — to exactly the bytes it was
// decoded from. Seeds live in testdata/fuzz/FuzzApplyAck.
func FuzzApplyAck(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		var hints []graph.VertexID
		applied, err := decodeApplyAck(frame, func(v graph.VertexID) {
			if v >= graph.MaxVertexID {
				t.Fatalf("pushed hint %d, at or above %d", v, graph.MaxVertexID)
			}
			hints = append(hints, v)
		})
		if err != nil {
			return
		}
		text := frame[14 : 14+binary.BigEndian.Uint32(frame[10:])]
		want := appendU64([]byte{msgApplyResp, 0}, applied)
		want = append(appendU32(want, uint32(len(text))), text...)
		want = appendU32(want, uint32(len(hints)))
		for _, v := range hints {
			want = appendU64(want, uint64(v))
		}
		if !bytes.HasPrefix(frame, want) {
			t.Fatalf("ack (%d, %v) re-encodes as %x, decoded from %x", applied, hints, want, frame)
		}
	})
}

// FuzzReadFrame feeds an arbitrary byte stream to readFrame, the length
// check every connection's reader runs first. It must never panic; a
// stream shorter than the frame its prefix claims ends in
// io.ErrUnexpectedEOF; a prefix beyond maxFrame is refused; and a complete
// frame reads back as exactly the payload that followed its prefix. What a
// short stream costs is TestReadFrameAllocatesAsBytesArrive's. Seeds live
// in testdata/fuzz/FuzzReadFrame.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := readFrame(bufio.NewReaderSize(bytes.NewReader(data), 1<<16), nil)
		if len(data) < 4 {
			want := io.ErrUnexpectedEOF
			if len(data) == 0 {
				want = io.EOF
			}
			if !errors.Is(err, want) {
				t.Fatalf("%d-byte stream: err %v, want %v", len(data), err, want)
			}
			return
		}
		n := binary.BigEndian.Uint32(data)
		body := data[4:]
		switch {
		case n > maxFrame:
			if err == nil {
				t.Fatalf("frame of %d bytes over the %d limit accepted", n, maxFrame)
			}
		case uint64(len(body)) < uint64(n):
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%d of %d body bytes: err %v, want io.ErrUnexpectedEOF", len(body), n, err)
			}
		default:
			if err != nil || !bytes.Equal(frame, body[:n]) {
				t.Fatalf("complete %d-byte frame read as %d bytes, err %v", n, len(frame), err)
			}
		}
	})
}

// TestReadFrameAllocatesAsBytesArrive: a length prefix commits readFrame to
// buffer only what arrives. A frame claiming maxFrame (64 MiB) cut short
// after len bytes allocates at most 4·len + 2·frameChunk, and a frame read
// into a buffer that fits allocates nothing.
func TestReadFrameAllocatesAsBytesArrive(t *testing.T) {
	for _, body := range []int{0, 1, frameChunk + 1, 5 * frameChunk} {
		data := append(binary.BigEndian.AppendUint32(nil, maxFrame), make([]byte, body)...)
		rd := bytes.NewReader(data)
		br := bufio.NewReaderSize(rd, 1<<16)
		got := bytesPerRun(4, func() {
			rd.Reset(data)
			br.Reset(rd)
			if _, err := readFrame(br, nil); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%d of %d body bytes: err %v, want io.ErrUnexpectedEOF", body, maxFrame, err)
			}
		})
		if limit := uint64(4*body + 2*frameChunk); got > limit {
			t.Errorf("%d of %d body bytes: %d bytes allocated per read, want <= %d", body, maxFrame, got, limit)
		}
	}
	data := make([]byte, 4+3*frameChunk)
	binary.BigEndian.PutUint32(data, 3*frameChunk)
	rd := bytes.NewReader(data)
	br := bufio.NewReaderSize(rd, 1<<16)
	buf := make([]byte, 3*frameChunk)
	if got := bytesPerRun(4, func() {
		rd.Reset(data)
		br.Reset(rd)
		if _, err := readFrame(br, buf); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("frame into a buffer that fits: %d bytes allocated per read, want 0", got)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call of
// f allocates, averaged over runs after a warm-up call, with GOMAXPROCS at
// 1 so that no other goroutine runs beside f.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
