package obs

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"testing"
)

func tsRows(t *testing.T, buf *bytes.Buffer) [][]string {
	t.Helper()
	r := csv.NewReader(buf)
	// Processor columns grow on demand, so data rows may be wider than
	// the header.
	r.FieldsPerRecord = -1
	rows, err := r.ReadAll()
	if err != nil {
		t.Fatalf("output is not CSV: %v", err)
	}
	return rows
}

func tsField(t *testing.T, rows [][]string, row int, col string) float64 {
	t.Helper()
	for i, name := range rows[0] {
		if name == col {
			v, err := strconv.ParseFloat(rows[row][i], 64)
			if err != nil {
				t.Fatalf("row %d col %s: %v", row, col, err)
			}
			return v
		}
	}
	t.Fatalf("no column %q in %v", col, rows[0])
	return 0
}

func TestTimeSeriesIntervals(t *testing.T) {
	var buf bytes.Buffer
	ts := NewTimeSeries(&buf, 100, 2)

	// Interval [0,100): 2 arrivals, proc 0 busy for [10,60), one warm of
	// two exec starts, queue gauge samples 2 and 4.
	ts.Record(Event{T: 5, Kind: KindArrival, Stream: 0, Seq: 1})
	ts.Record(Event{T: 6, Kind: KindArrival, Stream: 0, Seq: 2})
	ts.Record(Event{T: 10, Kind: KindProcBusy, Proc: 0})
	ts.Record(Event{T: 10, Kind: KindExecStart, Proc: 0, Stream: 0, Seq: 1, Flags: FlagWarm})
	ts.Record(Event{T: 30, Kind: KindExecEnd, Proc: 0, Stream: 0, Seq: 1})
	ts.Record(Event{T: 30, Kind: KindExecStart, Proc: 0, Stream: 0, Seq: 2, Flags: FlagCold})
	ts.Record(Event{T: 40, Kind: KindGaugeQueue, Val: 2})
	ts.Record(Event{T: 50, Kind: KindGaugeQueue, Val: 4})
	ts.Record(Event{T: 60, Kind: KindExecEnd, Proc: 0, Stream: 0, Seq: 2})
	ts.Record(Event{T: 60, Kind: KindProcIdle, Proc: 0, Dur: 50})
	// Interval [100,200): proc 1 busy from 150 through the boundary; a
	// drop; an out-of-order completion (seq 3 after seq 4).
	ts.Record(Event{T: 110, Kind: KindArrival, Stream: 1, Seq: 3})
	ts.Record(Event{T: 111, Kind: KindArrival, Stream: 1, Seq: 4})
	ts.Record(Event{T: 120, Kind: KindDrop, Stream: 0, Seq: 5, Val: DropReasonQueue})
	ts.Record(Event{T: 150, Kind: KindProcBusy, Proc: 1})
	ts.Record(Event{T: 160, Kind: KindExecEnd, Proc: 1, Stream: 1, Seq: 4})
	ts.Record(Event{T: 170, Kind: KindExecEnd, Proc: 1, Stream: 1, Seq: 3})
	// Roll past 200 and close mid-interval at 250.
	ts.Record(Event{T: 250, Kind: KindProcIdle, Proc: 1, Dur: 100})
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}

	rows := tsRows(t, &buf)
	if len(rows) != 4 { // header + [0,100) + [100,200) + [200,250)
		t.Fatalf("rows=%d: %v", len(rows), rows)
	}
	if tsField(t, rows, 1, "t0_us") != 0 || tsField(t, rows, 2, "t0_us") != 100 || tsField(t, rows, 3, "t0_us") != 200 {
		t.Fatalf("interval starts wrong: %v", rows)
	}
	if tsField(t, rows, 1, "arrivals") != 2 || tsField(t, rows, 1, "completions") != 2 {
		t.Fatalf("interval 1 counts: %v", rows[1])
	}
	if tsField(t, rows, 1, "warm_frac") != 0.5 {
		t.Fatalf("warm_frac=%v, want 0.5", tsField(t, rows, 1, "warm_frac"))
	}
	if tsField(t, rows, 1, "mean_queue") != 3 {
		t.Fatalf("mean_queue=%v, want 3", tsField(t, rows, 1, "mean_queue"))
	}
	if tsField(t, rows, 1, "p0_busy") != 0.5 || tsField(t, rows, 1, "p1_busy") != 0 {
		t.Fatalf("interval 1 busy: %v", rows[1])
	}
	if tsField(t, rows, 1, "util") != 0.25 {
		t.Fatalf("interval 1 util=%v, want 0.25", tsField(t, rows, 1, "util"))
	}

	if tsField(t, rows, 2, "drops") != 1 || tsField(t, rows, 2, "reordered") != 1 {
		t.Fatalf("interval 2 drops/reordered: %v", rows[2])
	}
	// Proc 1 busy [150,200) of interval 2 → 0.5, carried into interval 3
	// until idle at 250 → full.
	if tsField(t, rows, 2, "p1_busy") != 0.5 {
		t.Fatalf("interval 2 p1_busy=%v, want 0.5", tsField(t, rows, 2, "p1_busy"))
	}
	if tsField(t, rows, 3, "p1_busy") != 1 {
		t.Fatalf("interval 3 p1_busy=%v, want 1", tsField(t, rows, 3, "p1_busy"))
	}
}

func TestTimeSeriesEmptyClose(t *testing.T) {
	var buf bytes.Buffer
	ts := NewTimeSeries(&buf, 100, 1)
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	rows := tsRows(t, &buf)
	if len(rows) != 1 {
		t.Fatalf("empty series must be header-only, got %v", rows)
	}
	ts.Record(Event{Kind: KindArrival}) // after Close: dropped, no panic
}

func TestTimeSeriesDefaultsAndGrowth(t *testing.T) {
	var buf bytes.Buffer
	ts := NewTimeSeries(&buf, 0, 0)                      // defaults: 1000 µs, no preallocated procs
	ts.Record(Event{T: 10, Kind: KindProcBusy, Proc: 1}) // grows to 2 procs
	ts.Record(Event{T: 500, Kind: KindProcIdle, Proc: 1, Dur: 490})
	ts.Record(Event{T: 1500, Kind: KindArrival, Stream: 0, Seq: 1})
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	rows := tsRows(t, &buf)
	// Grown processors appear in the data rows even though the header was
	// written before they were seen; header keeps its original width, so
	// parse by position: row 1 is [0,1000) with util = 490/1000/2.
	if len(rows[1]) < 9 {
		t.Fatalf("row too short: %v", rows[1])
	}
	util, err := strconv.ParseFloat(rows[1][8], 64)
	if err != nil || util != 490.0/1000/2 {
		t.Fatalf("util=%v (%v), want %v", util, err, 490.0/1000/2)
	}
}
