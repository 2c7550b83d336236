package obs

import (
	"bytes"
	"encoding/csv"
	"testing"
)

// A drop row carries its reason as a readable word in the last column,
// which reads back as DropReasonString of the event's value; every other
// row leaves the column empty.
func TestEventsCSVRoundTripDropReason(t *testing.T) {
	events := []Event{
		{T: 1.5, Kind: KindArrival, Proc: -1, Stream: 0, Entity: 0, Seq: 1},
		{T: 2, Kind: KindExecStart, Proc: 1, Stream: 0, Entity: 0, Seq: 1,
			Dur: 10, Val: 250.5, Flags: FlagMigrated | FlagWarm},
		{T: 3, Kind: KindDrop, Proc: -1, Stream: 2, Entity: 2, Seq: 5, Val: DropReasonQueue},
		{T: 4, Kind: KindDrop, Proc: -1, Stream: 2, Entity: 2, Seq: 6, Val: DropReasonLoss},
		{T: 5, Kind: KindGaugeQueue, Proc: -1, Stream: -1, Entity: -1, Val: 0},
	}
	var buf bytes.Buffer
	c := NewCSV(&buf)
	for _, e := range events {
		c.Record(e)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("output is not CSV: %v", err)
	}
	if len(rows) != len(events)+1 || rows[0][9] != "reason" {
		t.Fatalf("rows = %v, want a reason header and %d events", rows, len(events))
	}
	for i, e := range events {
		want := ""
		if e.Kind == KindDrop {
			want = DropReasonString(e.Val)
		}
		if got := rows[i+1][9]; got != want {
			t.Errorf("event %d (%v): reason %q, want %q", i, e.Kind, got, want)
		}
	}
	if rows[3][9] != "queue" || rows[4][9] != "loss" {
		t.Errorf("drop reasons not readable: %v, %v", rows[3], rows[4])
	}
}

func TestDropReasonStrings(t *testing.T) {
	if DropReasonString(DropReasonQueue) != "queue" || DropReasonString(DropReasonLoss) != "loss" {
		t.Fatal("drop reason names wrong")
	}
	if DropReasonString(7) != "" {
		t.Fatal("unknown reason must render empty")
	}
}

func TestAnalyzeLedger(t *testing.T) {
	ds := []Decision{
		// stream 0: chosen == preferred, zero regret
		{Point: PointPlace, Stream: 0, Chosen: 1, Preferred: 1, ChosenCost: 100, BestCost: 100},
		// stream 1: moved off its preferred proc twice, regret 3 and 0.5
		{Point: PointPlace, Stream: 1, Chosen: 2, Preferred: 0, ChosenCost: 103, BestCost: 100},
		{Point: PointDispatch, Stream: 1, Chosen: 2, Preferred: 0, ChosenCost: 100.5, BestCost: 100},
		// stream 2: no affinity target yet
		{Point: PointSpill, Stream: 2, Chosen: 0, Preferred: -1, ChosenCost: 100, BestCost: 100},
	}
	rep := AnalyzeLedger(ds)
	if rep.Total != 4 {
		t.Fatalf("total=%d", rep.Total)
	}
	if rep.ByPoint["place"] != 2 || rep.ByPoint["dispatch"] != 1 || rep.ByPoint["spill"] != 1 {
		t.Fatalf("by point: %v", rep.ByPoint)
	}
	if rep.ZeroRegret != 2 || rep.TotalRegret != 3.5 || rep.MaxRegret != 3 {
		t.Fatalf("regret: zero=%d total=%g max=%g", rep.ZeroRegret, rep.TotalRegret, rep.MaxRegret)
	}
	if rep.MeanRegret() != 3.5/4 {
		t.Fatalf("mean regret=%g", rep.MeanRegret())
	}
	// Histogram: zero bucket 2, (0,1] holds 0.5, (1,2] empty, (2,4] holds 3.
	if len(rep.Hist) != 4 || rep.Hist[0].Count != 2 ||
		rep.Hist[1].Count != 1 || rep.Hist[2].Count != 0 || rep.Hist[3].Count != 1 {
		t.Fatalf("hist: %+v", rep.Hist)
	}
	// Stream 1 leads with 2 moves.
	if rep.Streams[0].Stream != 1 || rep.Streams[0].Moves != 2 || rep.Streams[0].Regret != 3.5 {
		t.Fatalf("top stream: %+v", rep.Streams[0])
	}
	if rep.Streams[1].Moves != 0 || rep.Streams[2].Moves != 0 {
		t.Fatalf("streams: %+v", rep.Streams)
	}

	empty := AnalyzeLedger(nil)
	if empty.Total != 0 || empty.MeanRegret() != 0 || len(empty.Hist) != 1 {
		t.Fatalf("empty ledger report: %+v", empty)
	}
}
