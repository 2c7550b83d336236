package obs

import (
	"bytes"
	"strings"
	"testing"
)

// Exhaustiveness guard: every Kind must have a name, a Metrics counter,
// and deliberate handling in every sink. KindDrop/KindProcDown/KindProcUp
// were bolted on after the sinks were written and initially fell through
// switches silently; this test makes that mistake impossible to repeat —
// adding a Kind without teaching each sink about it fails here.

// chromeSilentKinds are the kinds the Chrome trace deliberately does not
// render (documented at the bottom of its Record switch): queue waits
// show as gaps inside packet spans, busy/idle as exec-slice presence.
// A new Kind may only join this list with a comment in chrometrace.go.
var chromeSilentKinds = map[Kind]bool{
	KindEnqueue:  true,
	KindDispatch: true,
	KindProcBusy: true,
	KindProcIdle: true,
}

// eventForKind builds a minimally valid event of kind k.
func eventForKind(k Kind) Event {
	e := Event{T: 10, Kind: k, Proc: 0, Stream: 0, Entity: 0, Seq: 1}
	if k.Gauge() {
		e.Proc, e.Stream, e.Entity, e.Seq = -1, -1, -1, 0
		e.Val = 3
	}
	return e
}

// Every kind has a name of its own, so a reader of the CSV or the
// Chrome trace can parse each row back to one kind.
func TestEveryKindHasNameAndParse(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(0); k < numKinds; k++ {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "Kind(") {
			t.Errorf("kind %d lacks a name in kindNames", k)
			continue
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, s)
		}
		seen[s] = k
	}
}

func TestEveryKindCountedByMetrics(t *testing.T) {
	m := NewMetrics()
	for k := Kind(0); k < numKinds; k++ {
		m.Record(eventForKind(k))
	}
	s := m.Snapshot()
	for k := Kind(0); k < numKinds; k++ {
		if s.Counts[k.String()] != 1 {
			t.Errorf("kind %v not counted by Metrics", k)
		}
	}
}

func TestEveryKindRowInCSV(t *testing.T) {
	var buf bytes.Buffer
	c := NewCSV(&buf)
	for k := Kind(0); k < numKinds; k++ {
		c.Record(eventForKind(k))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if got := len(lines) - 1; got != int(numKinds) {
		t.Fatalf("CSV rows = %d, want one per kind (%d)", got, numKinds)
	}
	for k := Kind(0); k < numKinds; k++ {
		if !strings.Contains(lines[int(k)+1], ","+k.String()+",") {
			t.Errorf("row %d does not name kind %v: %q", k, k, lines[int(k)+1])
		}
	}
}

func TestEveryKindHandledByChromeTrace(t *testing.T) {
	// trace renders the given events and returns how many records came out.
	trace := func(evs ...Event) int {
		var buf bytes.Buffer
		ct := NewChromeTrace(&buf)
		for _, e := range evs {
			ct.Record(e)
		}
		if err := ct.Close(); err != nil {
			t.Fatal(err)
		}
		return strings.Count(buf.String(), `"ph"`)
	}
	for k := Kind(0); k < numKinds; k++ {
		// ExecEnd needs its ExecStart for a balanced slice; subtract the
		// prefix's own records so the delta isolates kind k.
		var prefix []Event
		if k == KindExecEnd {
			prefix = []Event{eventForKind(KindExecStart)}
		}
		emitted := trace(append(prefix, eventForKind(k))...) > trace(prefix...)
		if chromeSilentKinds[k] {
			if emitted {
				t.Errorf("kind %v emitted a Chrome record but is on the silent list", k)
			}
		} else if !emitted {
			t.Errorf("kind %v silently dropped by ChromeTrace — handle it or add it to chromeSilentKinds with a comment", k)
		}
	}
}

func TestEveryKindAggregatedOrIgnoredByTimeSeries(t *testing.T) {
	// The time series folds a subset of kinds; the rest must still pass
	// through without panic, whatever the payload.
	var buf bytes.Buffer
	ts := NewTimeSeries(&buf, 100, 2)
	for k := Kind(0); k < numKinds; k++ {
		ts.Record(eventForKind(k))
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
}
