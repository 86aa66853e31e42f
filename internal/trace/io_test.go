package trace

import (
	"errors"
	"io"
	"strings"
	"testing"
)

// TestCSVReaderSkipsMalformedRecords is the corrupted-fixture regression
// test: malformed records mid-stream surface as per-record RecordErrors
// with the offending line number, the reader keeps going, and the tail
// of the dataset is preserved — a single corrupt line no longer costs
// everything after it.
func TestCSVReaderSkipsMalformedRecords(t *testing.T) {
	// Lines are 1-based and include the header (line 1).
	fixture := strings.Join([]string{
		"block,time,kind,from,from_kind,to,to_kind,value",
		"1,1000,tx,10,account,20,account,5",             // line 2: good
		"2,1001,teleport,10,account,20,account,5",       // line 3: unknown kind
		"3,1002,tx,10,account,20,account",               // line 4: wrong field count
		"4,x,tx,10,account,20,account,5",                // line 5: bad time
		"5,1003,tx,67108864,account,20,account,5",       // line 6: from at graph.MaxVertexID
		"6,1003,tx,10,account,1099511627776,account,5",  // line 7: to = 2^40
		"4294967296,1004,tx,10,account,20,account,5",    // line 8: block = 2^32
		"4294967295,1005,call,11,contract,21,account,7", // line 9: good (the tail), the largest block
	}, "\n") + "\n"

	cr := NewCSVReader(strings.NewReader(fixture))
	var records []Record
	var recErrs []*RecordError
	for {
		rec, err := cr.Read()
		if err == nil {
			records = append(records, rec)
			continue
		}
		if errors.Is(err, io.EOF) {
			break
		}
		var re *RecordError
		if !errors.As(err, &re) {
			t.Fatalf("non-recoverable error mid-stream: %v", err)
		}
		recErrs = append(recErrs, re)
	}

	if len(records) != 2 {
		t.Fatalf("got %d records, want 2 (head and tail preserved)", len(records))
	}
	if records[0].Block != 1 || records[1].Block != 1<<32-1 {
		t.Errorf("records = blocks %d, %d; want 1, %d", records[0].Block, records[1].Block, uint32(1<<32-1))
	}
	if len(recErrs) != 6 {
		t.Fatalf("got %d record errors, want 6", len(recErrs))
	}
	for i, wantLine := range []int{3, 4, 5, 6, 7, 8} {
		if recErrs[i].Line != wantLine {
			t.Errorf("record error %d at line %d, want %d (%v)", i, recErrs[i].Line, wantLine, recErrs[i])
		}
		if !strings.Contains(recErrs[i].Error(), "bad CSV record at line") {
			t.Errorf("record error %d message %q lacks context", i, recErrs[i].Error())
		}
	}
	for _, re := range recErrs[3:] {
		if !strings.Contains(re.Error(), "out of range") {
			t.Errorf("record error %q does not name the bound", re.Error())
		}
	}
	if cr.Skipped() != 6 {
		t.Errorf("Skipped() = %d, want 6", cr.Skipped())
	}
}

// TestCSVReaderHeaderErrorsStayFatal pins the boundary of the recovery:
// a bad header is not a RecordError — it stays fatal and latched, so a
// caller that keeps reading cannot misparse data rows as records of a
// file that was never a trace CSV.
func TestCSVReaderHeaderErrorsStayFatal(t *testing.T) {
	cr := NewCSVReader(strings.NewReader("1,1000,tx,10,account,20,account,5\n"))
	_, err := cr.Read()
	if err == nil {
		t.Fatal("headerless input accepted")
	}
	var re *RecordError
	if errors.As(err, &re) {
		t.Fatalf("header failure surfaced as recoverable RecordError: %v", err)
	}
	_, err2 := cr.Read()
	if err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("header error not latched: first %v, then %v", err, err2)
	}
	if cr.Skipped() != 0 {
		t.Errorf("Skipped() = %d after header failure, want 0", cr.Skipped())
	}
}
