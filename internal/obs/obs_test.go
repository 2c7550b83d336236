package obs

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < numKinds; k++ {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "Kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[s] {
			t.Fatalf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if Kind(200).String() != "Kind(200)" {
		t.Fatal("unknown kind must fall back to Kind(n)")
	}
	if !KindGaugeQueue.Gauge() || KindArrival.Gauge() {
		t.Fatal("Gauge() misclassifies kinds")
	}
}

func TestFlagsString(t *testing.T) {
	if s := (FlagCold | FlagMigrated | FlagLocked).String(); s != "cold|migrated|locked" {
		t.Fatalf("flags string = %q", s)
	}
	if s := Flags(0).String(); s != "" {
		t.Fatalf("zero flags string = %q", s)
	}
}

func TestMetricsCountsAndTimers(t *testing.T) {
	m := NewMetrics()
	m.Record(Event{T: 0, Kind: KindArrival, Proc: -1, Stream: 0, Entity: 0, Seq: 1})
	m.Record(Event{T: 5, Kind: KindDispatch, Proc: 2, Stream: 0, Entity: 0, Seq: 1, Dur: 5})
	m.Record(Event{T: 5, Kind: KindExecStart, Proc: 2, Stream: 0, Entity: 0, Seq: 1, Dur: 100, Val: math.Inf(1), Flags: FlagCold})
	m.Record(Event{T: 105, Kind: KindExecEnd, Proc: 2, Stream: 0, Entity: 0, Seq: 1, Dur: 100})
	m.Record(Event{T: 105, Kind: KindProcIdle, Proc: 2, Dur: 100})
	m.Record(Event{T: 200, Kind: KindGaugeQueue, Proc: -1, Val: 3})

	s := m.Snapshot()
	if s.Events != 6 {
		t.Fatalf("events = %d, want 6", s.Events)
	}
	if s.Arrivals != 1 || s.Dispatches != 1 || s.Completions != 1 {
		t.Fatalf("lifecycle counts wrong: %+v", s)
	}
	if s.ExecTime.N != 1 || s.ExecTime.Mean != 100 {
		t.Fatalf("exec timer: %+v", s.ExecTime)
	}
	if s.QueueWait.Mean != 5 {
		t.Fatalf("queue wait: %+v", s.QueueWait)
	}
	if len(s.PerProcBusy) != 3 || s.PerProcBusy[2] != 100 {
		t.Fatalf("per-proc busy: %v", s.PerProcBusy)
	}
	if s.QueueDepth.Mean != 3 {
		t.Fatalf("queue depth: %+v", s.QueueDepth)
	}
	if s.Counts["arrival"] != 1 || s.Counts["exec_end"] != 1 {
		t.Fatalf("counts map: %v", s.Counts)
	}
}

func TestMultiFanOutAndFind(t *testing.T) {
	a, b := NewMetrics(), NewMetrics()
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("Multi of nothing must be nil")
	}
	if Multi(nil, a) != Recorder(a) {
		t.Fatal("Multi of one must be that recorder")
	}
	tee := Multi(a, nil, b)
	tee.Record(Event{Kind: KindArrival})
	if a.Snapshot().Events != 1 || b.Snapshot().Events != 1 {
		t.Fatal("tee did not fan out")
	}
	if FindMetrics(tee) != a {
		t.Fatal("FindMetrics missed the first metrics sink")
	}
	if FindMetrics(nil) != nil || FindMetrics(NewCSV(&bytes.Buffer{})) != nil {
		t.Fatal("FindMetrics false positive")
	}
	if FindMetrics(Multi(NewCSV(&bytes.Buffer{}), b)) != b {
		t.Fatal("FindMetrics missed a nested sink")
	}
}

// chromeEvents replays events through a ChromeTrace and parses the output.
func chromeEvents(t *testing.T, evs []Event) []map[string]any {
	t.Helper()
	var buf bytes.Buffer
	ct := NewChromeTrace(&buf)
	for _, e := range evs {
		ct.Record(e)
	}
	if err := ct.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, buf.String())
	}
	return out
}

func TestChromeTraceValidJSON(t *testing.T) {
	out := chromeEvents(t, []Event{
		{T: 0, Kind: KindArrival, Proc: -1, Stream: 1, Entity: 1, Seq: 1},
		{T: 2, Kind: KindDispatch, Proc: 0, Stream: 1, Entity: 1, Seq: 1, Dur: 2},
		{T: 2, Kind: KindExecStart, Proc: 0, Stream: 1, Entity: 1, Seq: 1, Dur: 50, Val: math.Inf(1), Flags: FlagCold},
		{T: 2, Kind: KindColdStart, Proc: 0, Stream: 1, Entity: 1, Seq: 1},
		{T: 52, Kind: KindExecEnd, Proc: 0, Stream: 1, Entity: 1, Seq: 1, Dur: 50},
		{T: 60, Kind: KindGaugeQueue, Proc: -1, Stream: -1, Entity: -1, Val: 4},
		{T: 61, Kind: KindSpill, Proc: -1, Stream: 1, Entity: 1, Seq: 2},
	})
	phases := map[string]int{}
	for _, ev := range out {
		phases[ev["ph"].(string)]++
	}
	if phases["B"] != 1 || phases["E"] != 1 {
		t.Fatalf("exec slice missing: %v", phases)
	}
	if phases["b"] != 1 || phases["e"] != 1 {
		t.Fatalf("async packet span missing: %v", phases)
	}
	if phases["C"] != 1 || phases["i"] != 2 {
		t.Fatalf("counter/instant missing: %v", phases)
	}
	if phases["M"] == 0 {
		t.Fatal("no naming metadata emitted")
	}
	// The cold start's infinite xrefs must have been sanitized.
	for _, ev := range out {
		if ev["ph"] == "B" {
			args := ev["args"].(map[string]any)
			if args["xrefs"].(float64) != -1 {
				t.Fatalf("xrefs not sanitized: %v", args["xrefs"])
			}
		}
	}
}

func TestChromeTraceTrackMetadata(t *testing.T) {
	out := chromeEvents(t, []Event{
		{T: 1, Kind: KindExecStart, Proc: 3, Stream: 2, Entity: 2, Seq: 1, Dur: 10},
		{T: 11, Kind: KindExecEnd, Proc: 3, Stream: 2, Entity: 2, Seq: 1, Dur: 10},
		{T: 12, Kind: KindExecStart, Proc: 3, Stream: 2, Entity: 2, Seq: 2, Dur: 10},
	})
	names := 0
	for _, ev := range out {
		if ev["ph"] == "M" && ev["name"] == "thread_name" {
			names++
		}
	}
	// One thread_name for cpu 3 and one for stream 2 — announced once
	// each, not per event.
	if names != 2 {
		t.Fatalf("thread_name metadata = %d, want 2", names)
	}
}

func TestChromeTraceEmptyClose(t *testing.T) {
	var buf bytes.Buffer
	ct := NewChromeTrace(&buf)
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}
	var out []any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil || len(out) != 0 {
		t.Fatalf("empty trace must be an empty JSON array, got %q", buf.String())
	}
	ct.Record(Event{Kind: KindArrival}) // after Close: dropped, no panic
}

func TestCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := NewCSV(&buf)
	c.Record(Event{T: 1.5, Kind: KindArrival, Proc: -1, Stream: 0, Entity: 0, Seq: 1})
	c.Record(Event{T: 2, Kind: KindExecStart, Proc: 1, Stream: 0, Entity: 0, Seq: 1, Dur: 10, Val: 250.5, Flags: FlagMigrated})
	c.Record(Event{T: 3, Kind: KindGaugeQueue, Proc: -1, Stream: -1, Entity: -1, Val: 0})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("output is not CSV: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want header + 3", len(rows))
	}
	if rows[0][0] != "t_us" || rows[1][1] != "arrival" {
		t.Fatalf("unexpected rows: %v", rows[:2])
	}
	if rows[2][8] != "migrated" || rows[2][7] != "250.5" {
		t.Fatalf("exec row = %v", rows[2])
	}
	// A gauge of zero still writes its value explicitly.
	if rows[3][7] != "0" {
		t.Fatalf("gauge row = %v", rows[3])
	}
}
