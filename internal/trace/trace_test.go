package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"ethpart/internal/evm"
	"ethpart/internal/graph"
	"ethpart/internal/types"
)

// TestRecordLayout pins Record at 40 bytes. A generated history is held
// whole, one Record per interaction, so a field that widens or breaks the
// widest-first order shows here before it shows in every run's heap.
func TestRecordLayout(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got != 40 {
		t.Errorf("unsafe.Sizeof(Record{}) = %d, want 40", got)
	}
}

func TestRegistryAssignsDenseIDs(t *testing.T) {
	r := NewRegistry()
	a := types.AddressFromSeq(1)
	b := types.AddressFromSeq(2)
	if got := r.ID(a); got != 0 {
		t.Errorf("first ID = %d, want 0", got)
	}
	if got := r.ID(b); got != 1 {
		t.Errorf("second ID = %d, want 1", got)
	}
	if got := r.ID(a); got != 0 {
		t.Errorf("repeat ID = %d, want 0", got)
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
	if addr, ok := r.Address(0); !ok || addr != a {
		t.Errorf("Address(0) = %v, %v", addr, ok)
	}
	if _, ok := r.Address(99); ok {
		t.Error("Address of unknown id must fail")
	}
	if _, ok := r.Lookup(types.AddressFromSeq(3)); ok {
		t.Error("Lookup must not assign")
	}
}

func TestRegistryContractFlag(t *testing.T) {
	r := NewRegistry()
	id := r.ID(types.AddressFromSeq(1))
	if r.IsContract(id) {
		t.Error("fresh vertex must not be a contract")
	}
	r.MarkContract(id)
	if !r.IsContract(id) {
		t.Error("MarkContract must stick")
	}
	r.MarkContract(12345) // out of range: no panic
}

func TestRecordApplyAndKinds(t *testing.T) {
	rec := Record{From: 1, To: 2, FromContract: false, ToContract: true}
	if rec.FromKind() != graph.KindAccount || rec.ToKind() != graph.KindContract {
		t.Error("kind mapping wrong")
	}
	g := graph.New()
	if err := rec.Apply(g); err != nil {
		t.Fatal(err)
	}
	if g.EdgeWeight(1, 2) != 1 {
		t.Error("Apply must add a weight-1 edge")
	}
	if g.VertexKind(2) != graph.KindContract {
		t.Error("Apply must carry the contract kind")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	records := []Record{
		{Block: 1, Time: 1000, Kind: evm.KindTransaction, From: 0, To: 1, Value: 42},
		{Block: 1, Time: 1000, Kind: evm.KindCall, From: 1, To: 2, ToContract: true},
		{Block: 2, Time: 2000, Kind: evm.KindCreate, From: 0, To: 3, FromContract: true, ToContract: true, Value: ^uint64(0)},
	}
	var buf bytes.Buffer
	w := NewCSVWriter(&buf)
	for _, rec := range records {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "block,time,kind,") {
		t.Errorf("missing header: %q", buf.String()[:40])
	}

	r := NewCSVReader(&buf)
	var got []Record
	for {
		rec, err := r.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rec)
	}
	if len(got) != len(records) {
		t.Fatalf("round trip lost records: %d vs %d", len(got), len(records))
	}
	for i := range records {
		if got[i] != records[i] {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], records[i])
		}
	}
}

func TestCSVReaderEmpty(t *testing.T) {
	r := NewCSVReader(strings.NewReader(""))
	if _, err := r.Read(); !errors.Is(err, io.EOF) {
		t.Errorf("empty stream: err = %v, want EOF", err)
	}
}

func TestCSVReaderHeaderlessInput(t *testing.T) {
	// A headerless file starts with a data row; discarding it blindly
	// would silently drop the first record. The reader must refuse with an
	// error naming the expected header instead.
	in := "1,1000,tx,0,account,1,account,42\n1,1000,call,1,account,2,contract,0\n"
	r := NewCSVReader(strings.NewReader(in))
	_, err := r.Read()
	if err == nil {
		t.Fatal("headerless input must error, not lose its first record")
	}
	if !strings.Contains(err.Error(), "header") || !strings.Contains(err.Error(), "block,time,kind") {
		t.Errorf("error must name the expected header: %v", err)
	}
	// The failure is sticky: a caller that keeps reading must not have
	// later data rows validated as the header and then reach a clean EOF
	// that masks the malformed input.
	for i := 0; i < 3; i++ {
		if _, again := r.Read(); again == nil || again.Error() != err.Error() {
			t.Fatalf("read %d after header failure: err = %v, want the original header error", i, again)
		}
	}
}

func TestCSVReaderWrongHeader(t *testing.T) {
	in := "blk,ts,type,src,src_kind,dst,dst_kind,amount\n1,1000,tx,0,account,1,account,42\n"
	r := NewCSVReader(strings.NewReader(in))
	if _, err := r.Read(); err == nil || !strings.Contains(err.Error(), "bad CSV header") {
		t.Errorf("wrong header must be rejected descriptively, got %v", err)
	}
}

func TestCSVReaderHeaderOnly(t *testing.T) {
	in := "block,time,kind,from,from_kind,to,to_kind,value\n"
	r := NewCSVReader(strings.NewReader(in))
	if _, err := r.Read(); !errors.Is(err, io.EOF) {
		t.Errorf("header-only stream: err = %v, want EOF", err)
	}
}

func TestCSVReaderBadKind(t *testing.T) {
	in := "block,time,kind,from,from_kind,to,to_kind,value\n1,2,bogus,0,account,1,account,0\n"
	r := NewCSVReader(strings.NewReader(in))
	if _, err := r.Read(); err == nil {
		t.Error("bad kind must error")
	}
}

func TestPropertyCSVRoundTrip(t *testing.T) {
	f := func(block uint32, tm int64, kindRaw uint8, from, to uint64, fc, tc bool, value uint64) bool {
		kind := evm.CallKind(kindRaw%3) + 1
		bound := uint64(graph.MaxVertexID)
		rec := Record{Block: block, Time: tm, Kind: kind, From: from % bound, To: to % bound,
			FromContract: fc, ToContract: tc, Value: value}
		var buf bytes.Buffer
		w := NewCSVWriter(&buf)
		if err := w.Write(rec); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r := NewCSVReader(&buf)
		got, err := r.Read()
		return err == nil && got == rec
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
