package dirserve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"ethpart/internal/directory"
	"ethpart/internal/graph"
)

// FuzzApplyFrame feeds an arbitrary msgApply payload (everything after the
// type byte: epoch, wave flag, batch) to a replica's frame handler over a
// fresh directory — cursor.decodeBatch, then Replica.Apply. It must never
// panic; it answers with an error ack or leaves every mapped ID below
// graph.MaxVertexID; and a batch that decodes re-encodes with appendBatch
// to exactly the bytes it was decoded from. Seeds live in
// testdata/fuzz/FuzzApplyFrame.
func FuzzApplyFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		c := cursor{p: payload}
		c.u64()
		c.u8()
		batch := c.p
		b := c.decodeBatch()
		if c.err == nil {
			if got, want := appendBatch(nil, b), batch[:len(batch)-len(c.p)]; !bytes.Equal(got, want) {
				t.Fatalf("batch %+v re-encodes as %x, decoded from %x", b, got, want)
			}
		}

		d := directory.New(directory.Config{})
		s := &Server{cfg: ServerConfig{Dir: d, Replica: NewReplica(d)}}
		sc := cursor{p: payload}
		out := s.answerApply(&sc, nil)
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
		d.Current().Each(func(v graph.VertexID, _ int) bool {
			if v >= graph.MaxVertexID {
				t.Fatalf("applied frame mapped %d, at or above %d", v, graph.MaxVertexID)
			}
			return true
		})
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
