package obs

import (
	"bufio"
	"io"
)

// writer is the buffered output the streaming sinks share. A sink
// builds each row by hand in row, a scratch buffer reused from row to
// row, so recording performs no steady-state allocation. The first
// write error sticks: later rows are dropped and Close returns it.
type writer struct {
	bw     *bufio.Writer
	row    []byte
	err    error
	closed bool
}

func newWriter(w io.Writer, rowCap int) writer {
	return writer{bw: bufio.NewWriter(w), row: make([]byte, 0, rowCap)}
}

// ok reports whether the sink still writes rows: no error, not closed.
func (w *writer) ok() bool { return w.err == nil && !w.closed }

// write writes a built row and keeps its buffer for the next one.
func (w *writer) write(b []byte) {
	w.row = b
	if w.err == nil {
		_, w.err = w.bw.Write(b)
	}
}

// Close flushes buffered rows and returns the first error. Rows
// recorded after Close are dropped.
func (w *writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if err := w.bw.Flush(); w.err == nil {
		w.err = err
	}
	return w.err
}
