package obs

import (
	"io"
	"strconv"
)

// CSV streams every event as one row of a CSV time series:
//
//	t_us,kind,proc,stream,entity,seq,dur_us,value,flags,reason
//
// Indices that do not apply print as -1 and payloads as empty fields,
// so the output loads cleanly into dataframe tools. Drop events render
// their reason code as a readable string in the reason column ("queue",
// "loss") and leave the value column empty. Close flushes.
//
// Rows are built by hand into a reused scratch buffer rather than
// through encoding/csv: no field the sink emits ever needs quoting
// (kind and flag names, decimal numbers), and the per-row []string plus
// number formatting of the generic writer dominated the recorder's
// allocation profile. Record performs no steady-state allocation.
type CSV struct {
	writer
}

// NewCSV returns a sink writing rows (header included) to w.
func NewCSV(w io.Writer) *CSV {
	c := &CSV{newWriter(w, 128)}
	c.write(append(c.row, "t_us,kind,proc,stream,entity,seq,dur_us,value,flags,reason\n"...))
	return c
}

// Record implements Recorder.
func (c *CSV) Record(e Event) {
	if !c.ok() {
		return
	}
	b := c.row[:0]
	b = strconv.AppendFloat(b, e.T, 'g', -1, 64)
	b = append(b, ',')
	b = append(b, e.Kind.String()...)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(e.Proc), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(e.Stream), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(e.Entity), 10)
	b = append(b, ',')
	b = strconv.AppendUint(b, e.Seq, 10)
	b = append(b, ',')
	if e.Dur != 0 {
		b = strconv.AppendFloat(b, e.Dur, 'g', -1, 64)
	}
	b = append(b, ',')
	if e.Kind != KindDrop && (e.Val != 0 || e.Kind.Gauge()) {
		b = strconv.AppendFloat(b, e.Val, 'g', -1, 64)
	}
	b = append(b, ',')
	b = append(b, e.Flags.String()...)
	b = append(b, ',')
	if e.Kind == KindDrop {
		b = append(b, DropReasonString(e.Val)...)
	}
	b = append(b, '\n')
	c.write(b)
}
