package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"ethpart/internal/graph"
)

// readLenient drains a CSVReader the way a lenient caller does: per-record
// errors are skipped, io.EOF or any other error ends the stream.
func readLenient(r io.Reader) []Record {
	cr := NewCSVReader(r)
	var out []Record
	for {
		rec, err := cr.Read()
		var re *RecordError
		switch {
		case err == nil:
			out = append(out, rec)
		case errors.As(err, &re):
		default:
			return out
		}
	}
}

// FuzzCSVReader feeds arbitrary bytes to the trace decoder. It must never
// panic, every record it returns must name IDs below graph.MaxVertexID,
// and those records, written back with CSVWriter, must read back equal and
// without a single skipped row. Seeds live in testdata/fuzz/FuzzCSVReader.
func FuzzCSVReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		records := readLenient(bytes.NewReader(data))
		var buf bytes.Buffer
		w := NewCSVWriter(&buf)
		for _, rec := range records {
			if rec.From >= uint64(graph.MaxVertexID) || rec.To >= uint64(graph.MaxVertexID) {
				t.Fatalf("record %+v names an ID at or above %d", rec, graph.MaxVertexID)
			}
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		cr := NewCSVReader(&buf)
		for i := 0; ; i++ {
			got, err := cr.Read()
			if errors.Is(err, io.EOF) {
				if i != len(records) {
					t.Fatalf("re-read %d records, wrote %d", i, len(records))
				}
				return
			}
			if err != nil {
				t.Fatalf("re-reading record %d: %v", i, err)
			}
			if i >= len(records) || got != records[i] {
				t.Fatalf("record %d read back as %+v", i, got)
			}
		}
	})
}
