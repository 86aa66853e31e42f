package trace

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strings"
)

// Generated scenario traces are large; the file helpers below make gzip
// transparent at the I/O boundary so every tool reads and writes .csv.gz
// exactly like .csv. Readers sniff the gzip magic instead of trusting the
// file name, so renamed or piped compressed streams still decode.

// gzipMagic is the two-byte gzip stream header (RFC 1952).
var gzipMagic = []byte{0x1f, 0x8b}

// MaybeCompressed wraps r so that gzip-compressed input is transparently
// decompressed: the first two bytes are sniffed for the gzip magic and
// plain streams pass through untouched (buffered).
func MaybeCompressed(r io.Reader) (io.Reader, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	head, err := br.Peek(2)
	if err != nil {
		// Too short to be gzip (or empty): hand the buffered stream back
		// and let the caller's decoder produce its own error.
		return br, nil
	}
	if head[0] != gzipMagic[0] || head[1] != gzipMagic[1] {
		return br, nil
	}
	zr, err := gzip.NewReader(br)
	if err != nil {
		return nil, fmt.Errorf("trace: opening gzip stream: %w", err)
	}
	return zr, nil
}

// closers is a stack of layers closed in order, each flushing before the
// layer beneath it closes; Close returns the first error.
type closers []io.Closer

func (cs closers) Close() error {
	var first error
	for _, c := range cs {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// readCloser pairs a decoding reader with the closers beneath it.
type readCloser struct {
	io.Reader
	closers
}

// OpenFile opens a trace file for reading, transparently decompressing
// gzip content (sniffed by magic bytes, so both trace.csv.gz and renamed
// compressed files work). "-" reads from stdin.
func OpenFile(path string) (io.ReadCloser, error) {
	if path == "-" {
		r, err := MaybeCompressed(os.Stdin)
		if err != nil {
			return nil, err
		}
		return &readCloser{Reader: r}, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := MaybeCompressed(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	rc := &readCloser{Reader: r}
	if zr, ok := r.(*gzip.Reader); ok {
		rc.closers = append(rc.closers, zr)
	}
	rc.closers = append(rc.closers, f)
	return rc, nil
}

// writeCloser pairs an encoding writer with the full encoder stack.
type writeCloser struct {
	io.Writer
	closers
}

// flusher adapts a Flush method to io.Closer for the ordered close stack.
type flusher struct{ f func() error }

func (fl flusher) Close() error { return fl.f() }

// CreateFile creates a trace file for writing, gzip-compressing when the
// name ends in ".gz". "-" writes to stdout (never compressed — pipe
// through gzip explicitly for compressed stdout). Close flushes the whole
// stack.
func CreateFile(path string) (io.WriteCloser, error) {
	if path == "-" {
		bw := bufio.NewWriterSize(os.Stdout, 1<<20)
		return &writeCloser{Writer: bw, closers: []io.Closer{flusher{bw.Flush}}}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if !strings.HasSuffix(path, ".gz") {
		return &writeCloser{Writer: bw, closers: []io.Closer{flusher{bw.Flush}, f}}, nil
	}
	zw := gzip.NewWriter(bw)
	return &writeCloser{Writer: zw, closers: []io.Closer{zw, flusher{bw.Flush}, f}}, nil
}
