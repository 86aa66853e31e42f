package dirserve

import (
	"bytes"
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
