package trace

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"ethpart/internal/evm"
	"ethpart/internal/graph"
)

// csvHeader is the first row of the CSV dataset format.
var csvHeader = []string{"block", "time", "kind", "from", "from_kind", "to", "to_kind", "value"}

// kindLabel maps call kinds to the dataset's string labels.
func kindLabel(k evm.CallKind) string {
	switch k {
	case evm.KindTransaction:
		return "tx"
	case evm.KindCall:
		return "call"
	case evm.KindCreate:
		return "create"
	default:
		return "unknown"
	}
}

// parseKind is the inverse of kindLabel.
func parseKind(s string) (evm.CallKind, error) {
	switch s {
	case "tx":
		return evm.KindTransaction, nil
	case "call":
		return evm.KindCall, nil
	case "create":
		return evm.KindCreate, nil
	default:
		return 0, fmt.Errorf("trace: unknown interaction kind %q", s)
	}
}

func vertexLabel(contract bool) string {
	if contract {
		return "contract"
	}
	return "account"
}

// CSVWriter streams records in the dataset's CSV format.
type CSVWriter struct {
	w           *csv.Writer
	wroteHeader bool
}

// NewCSVWriter returns a writer emitting the dataset header on first write.
func NewCSVWriter(w io.Writer) *CSVWriter {
	return &CSVWriter{w: csv.NewWriter(w)}
}

// Write appends one record.
func (cw *CSVWriter) Write(r Record) error {
	if !cw.wroteHeader {
		if err := cw.w.Write(csvHeader); err != nil {
			return fmt.Errorf("trace: writing CSV header: %w", err)
		}
		cw.wroteHeader = true
	}
	row := []string{
		strconv.FormatUint(uint64(r.Block), 10),
		strconv.FormatInt(r.Time, 10),
		kindLabel(r.Kind),
		strconv.FormatUint(r.From, 10),
		vertexLabel(r.FromContract),
		strconv.FormatUint(r.To, 10),
		vertexLabel(r.ToContract),
		strconv.FormatUint(r.Value, 10),
	}
	if err := cw.w.Write(row); err != nil {
		return fmt.Errorf("trace: writing CSV row: %w", err)
	}
	return nil
}

// Flush flushes buffered rows and reports any accumulated error.
func (cw *CSVWriter) Flush() error {
	cw.w.Flush()
	return cw.w.Error()
}

// CSVReader streams records from the dataset's CSV format.
type CSVReader struct {
	r          *csv.Reader
	readHeader bool
	// headerErr latches a header-validation failure: the bad row is
	// already consumed, so without it a caller that keeps reading would
	// have successive data rows validated as the header and end in a
	// clean io.EOF that masks the malformed input.
	headerErr error
}

// RecordError reports one malformed record. It is recoverable: the reader
// has already advanced past the bad row, so the caller may count or log it
// and keep reading — a single corrupt line mid-stream no longer costs the
// tail of the dataset. Non-record failures (bad header, I/O errors) stay
// fatal and are not RecordErrors.
type RecordError struct {
	Line int // 1-based line in the input, 0 if unknown
	Err  error
}

func (e *RecordError) Error() string {
	return fmt.Sprintf("trace: bad CSV record at line %d: %v", e.Line, e.Err)
}

func (e *RecordError) Unwrap() error { return e.Err }

// NewCSVReader returns a reader over the dataset CSV format.
func NewCSVReader(r io.Reader) *CSVReader {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	return &CSVReader{r: cr}
}

// Read returns the next record, or io.EOF at the end of the stream.
//
// The first row must be the dataset header: blindly discarding it would
// silently lose the first record of a headerless file and misread any
// malformed input, so a mismatching first row is a descriptive error
// instead.
func (cr *CSVReader) Read() (Record, error) {
	if cr.headerErr != nil {
		return Record{}, cr.headerErr
	}
	if !cr.readHeader {
		row, err := cr.r.Read()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return Record{}, io.EOF
			}
			return Record{}, fmt.Errorf("trace: reading CSV header: %w", err)
		}
		if !slices.Equal(row, csvHeader) {
			cr.headerErr = fmt.Errorf("trace: bad CSV header %q, want %q (input is headerless or not a trace CSV)",
				strings.Join(row, ","), strings.Join(csvHeader, ","))
			return Record{}, cr.headerErr
		}
		cr.readHeader = true
	}
	row, err := cr.r.Read()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return Record{}, io.EOF
		}
		// A CSV-level parse failure (wrong field count, bad quoting) is
		// confined to the record the reader already consumed: surface it as
		// a recoverable RecordError instead of killing the stream.
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			return Record{}, &RecordError{Line: pe.Line, Err: err}
		}
		return Record{}, fmt.Errorf("trace: reading CSV row: %w", err)
	}
	rec, err := parseRow(row)
	if err != nil {
		line, _ := cr.r.FieldPos(0)
		return Record{}, &RecordError{Line: line, Err: err}
	}
	return rec, nil
}

func parseRow(row []string) (Record, error) {
	var rec Record
	var err error
	// A block number at or above 2³² does not fit Record.Block: it is
	// refused (strconv's range error), never truncated.
	block, err := strconv.ParseUint(row[0], 10, 32)
	if err != nil {
		return rec, fmt.Errorf("trace: bad block %q: %w", row[0], err)
	}
	rec.Block = uint32(block)
	if rec.Time, err = strconv.ParseInt(row[1], 10, 64); err != nil {
		return rec, fmt.Errorf("trace: bad time %q: %w", row[1], err)
	}
	if rec.Kind, err = parseKind(row[2]); err != nil {
		return rec, err
	}
	if rec.From, err = parseID("from", row[3]); err != nil {
		return rec, err
	}
	rec.FromContract = row[4] == "contract"
	if rec.To, err = parseID("to", row[5]); err != nil {
		return rec, err
	}
	rec.ToContract = row[6] == "contract"
	if rec.Value, err = strconv.ParseUint(row[7], 10, 64); err != nil {
		return rec, fmt.Errorf("trace: bad value %q: %w", row[7], err)
	}
	return rec, nil
}

// parseID parses one endpoint column, which must be a registry index below
// graph.MaxVertexID.
func parseID(field, s string) (uint64, error) {
	id, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("trace: bad %s %q: %w", field, s, err)
	}
	if id >= uint64(graph.MaxVertexID) {
		return 0, fmt.Errorf("trace: %s %d out of range [0,%d)", field, id, graph.MaxVertexID)
	}
	return id, nil
}
