package obs

import (
	"io"
	"testing"
)

// The sinks must not allocate per event once their tracks are announced
// and scratch buffers are warm: a traced run records millions of events,
// and sink garbage would show up as simulation slowdown.

func steadyEvents() []Event {
	return []Event{
		{T: 10, Kind: KindArrival, Proc: -1, Stream: 1, Entity: 1, Seq: 7},
		{T: 11, Kind: KindDispatch, Proc: 0, Stream: 1, Entity: 1, Seq: 7, Dur: 1},
		{T: 11, Kind: KindExecStart, Proc: 0, Stream: 1, Entity: 1, Seq: 7, Dur: 50, Val: 1234.5, Flags: FlagMigrated},
		{T: 61, Kind: KindExecEnd, Proc: 0, Stream: 1, Entity: 1, Seq: 7, Dur: 50},
		{T: 61, Kind: KindMigration, Proc: 0, Stream: 1, Entity: 1, Seq: 7},
		{T: 70, Kind: KindGaugeQueue, Proc: -1, Stream: -1, Entity: -1, Val: 3},
	}
}

func testSinkZeroAllocs(t *testing.T, name string, sink Recorder) {
	t.Helper()
	evs := steadyEvents()
	// Warm up: announce tracks, grow scratch and bufio buffers.
	for i := 0; i < 100; i++ {
		for _, e := range evs {
			sink.Record(e)
		}
	}
	got := testing.AllocsPerRun(100, func() {
		for _, e := range evs {
			sink.Record(e)
		}
	})
	if got != 0 {
		t.Errorf("%s: %v allocs per %d events in steady state, want 0", name, got, len(evs))
	}
}

func TestSinksSteadyStateZeroAllocs(t *testing.T) {
	t.Run("csv", func(t *testing.T) {
		testSinkZeroAllocs(t, "CSV", NewCSV(io.Discard))
	})
	t.Run("chrometrace", func(t *testing.T) {
		testSinkZeroAllocs(t, "ChromeTrace", NewChromeTrace(io.Discard))
	})
	t.Run("metrics", func(t *testing.T) {
		testSinkZeroAllocs(t, "Metrics", NewMetrics())
	})
}

func TestFlagsStringTable(t *testing.T) {
	// Every combination must render its member flags in the canonical
	// cold|migrated|locked|warm order.
	for f := Flags(0); f < 16; f++ {
		s := f.String()
		want := ""
		add := func(name string) {
			if want != "" {
				want += "|"
			}
			want += name
		}
		if f&FlagCold != 0 {
			add("cold")
		}
		if f&FlagMigrated != 0 {
			add("migrated")
		}
		if f&FlagLocked != 0 {
			add("locked")
		}
		if f&FlagWarm != 0 {
			add("warm")
		}
		if s != want {
			t.Errorf("Flags(%d).String() = %q, want %q", f, s, want)
		}
	}
}

func steadyDecision(cands []Candidate) Decision {
	return Decision{
		T: 42.5, Point: PointPlace, Seq: 7, Stream: 1, Entity: 1,
		Chosen: 2, Preferred: 0, ChosenCost: 310.25, BestCost: 284.5,
		Candidates: cands,
	}
}

func testDecisionSinkZeroAllocs(t *testing.T, name string, sink DecisionRecorder) {
	t.Helper()
	cands := []Candidate{
		{Proc: 0, Warm: true, XRefs: 120, Cost: 284.5},
		{Proc: 2, Warm: false, XRefs: 9000, Cost: 310.25},
	}
	d := steadyDecision(cands)
	for i := 0; i < 100; i++ {
		sink.RecordDecision(d)
	}
	got := testing.AllocsPerRun(100, func() {
		sink.RecordDecision(d)
	})
	if got != 0 {
		t.Errorf("%s: %v allocs per decision in steady state, want 0", name, got)
	}
}

func TestDecisionSinksSteadyStateZeroAllocs(t *testing.T) {
	t.Run("csv", func(t *testing.T) {
		testDecisionSinkZeroAllocs(t, "DecisionCSV", NewDecisionCSV(io.Discard))
	})
	t.Run("jsonl", func(t *testing.T) {
		testDecisionSinkZeroAllocs(t, "DecisionJSONL", NewDecisionJSONL(io.Discard))
	})
}

func TestTimeSeriesSteadyStateZeroAllocs(t *testing.T) {
	ts := NewTimeSeries(io.Discard, 50, 2)
	evs := steadyEvents()
	// Advance time every pass so interval rows actually emit inside the
	// measured loop — the emit path must be allocation-free too.
	base := 0.0
	pass := func() {
		for _, e := range evs {
			e.T += base
			ts.Record(e)
		}
		base += 100
	}
	for i := 0; i < 100; i++ {
		pass()
	}
	got := testing.AllocsPerRun(100, pass)
	if got != 0 {
		t.Errorf("TimeSeries: %v allocs per %d events in steady state, want 0", got, len(evs))
	}
}
