package workload

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"affinity/internal/des"
	"affinity/internal/traffic"
)

// drawAll drains n draws from a process.
func drawAll(p traffic.Process, n int) []TraceRec {
	out := make([]TraceRec, n)
	for i := range out {
		d, b := p.Next()
		out[i] = TraceRec{Delay: d, Batch: b}
	}
	return out
}

func sampleTrace(t *testing.T) *Trace {
	t.Helper()
	per := []traffic.Spec{
		traffic.Poisson{PacketsPerSec: 1000},
		traffic.Batch{PacketsPerSec: 500, MeanBurst: 4},
		traffic.Deterministic{PacketsPerSec: 250},
	}
	return Synthesize(per, 42, 100*des.Millisecond)
}

func TestTraceWriteReadRoundTrip(t *testing.T) {
	tr := sampleTrace(t)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Fatal("trace did not survive the write/read round trip bit-identically")
	}
	if tr.Hash() != back.Hash() {
		t.Fatal("round-tripped trace hash differs")
	}
}

func TestReadTraceRejects(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"empty", "", "empty"},
		{"bad header", "not a trace\n", "header"},
		{"bad columns", "# affinity-trace v1 streams=1\nwrong,cols\n", "column header"},
		{"bad stream", "# affinity-trace v1 streams=1\nstream,delay_us,batch\n5,1.5,1\n", "stream id"},
		{"bad delay", "# affinity-trace v1 streams=1\nstream,delay_us,batch\n0,-3,1\n", "delay"},
		{"NaN delay", "# affinity-trace v1 streams=1\nstream,delay_us,batch\n0,NaN,1\n", "delay"},
		{"infinite delay", "# affinity-trace v1 streams=1\nstream,delay_us,batch\n0,+Inf,1\n", "delay"},
		{"NaN rate", "# affinity-trace v1 streams=1\n# rates_pps=NaN\nstream,delay_us,batch\n0,1.5,1\n", "rate"},
		{"bad batch", "# affinity-trace v1 streams=1\nstream,delay_us,batch\n0,1.5,0\n", "batch"},
		{"short line", "# affinity-trace v1 streams=1\nstream,delay_us,batch\n0,1.5\n", "want stream"},
		{"no events", "# affinity-trace v1 streams=2\nstream,delay_us,batch\n", "no arrival events"},
	}
	for _, c := range cases {
		_, err := ReadTrace(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestRecordIsPassThrough pins that wrapping specs in recorders changes
// nothing about the draws the simulation sees, while capturing them all.
func TestRecordIsPassThrough(t *testing.T) {
	per := []traffic.Spec{
		traffic.Poisson{PacketsPerSec: 1000},
		traffic.Batch{PacketsPerSec: 500, MeanBurst: 4},
	}
	wrapped, tr := Record(per)
	const n = 500
	for i := range per {
		plain := drawAll(per[i].Build(des.NewRNG(7)), n)
		recorded := drawAll(wrapped[i].Build(des.NewRNG(7)), n)
		if !reflect.DeepEqual(plain, recorded) {
			t.Fatalf("stream %d: recording changed the draws", i)
		}
		if !reflect.DeepEqual(tr.Streams[i], recorded) {
			t.Fatalf("stream %d: trace does not hold the recorded draws", i)
		}
	}
	if wrapped[0].Rate() != per[0].Rate() {
		t.Fatal("record wrapper must preserve Rate")
	}
	if !wrapped[0].(interface{ HasSideEffects() bool }).HasSideEffects() {
		t.Fatal("record wrapper must report side effects (cache poisoning otherwise)")
	}
}

func TestReplayReproducesDraws(t *testing.T) {
	tr := sampleTrace(t)
	per := Replay(tr)
	if len(per) != len(tr.Streams) {
		t.Fatalf("replay produced %d specs for %d streams", len(per), len(tr.Streams))
	}
	for i, rs := range per {
		if err := rs.Validate(); err != nil {
			t.Fatal(err)
		}
		got := drawAll(rs.Build(nil), len(tr.Streams[i]))
		if !reflect.DeepEqual(got, tr.Streams[i]) {
			t.Fatalf("stream %d: replay diverged from the trace", i)
		}
	}
}

func TestReplayExhaustionParks(t *testing.T) {
	tr := &Trace{Streams: [][]TraceRec{{{Delay: 10, Batch: 1}}}}
	p := Replay(tr)[0].Build(nil)
	p.Next()
	d, b := p.Next()
	if d != exhaustedDelay || b != 1 {
		t.Fatalf("exhausted replay returned (%v, %d), want the parked sentinel", d, b)
	}
	// And stays parked.
	if d2, _ := p.Next(); d2 != exhaustedDelay {
		t.Fatal("exhausted replay must stay parked")
	}
}

func TestReplayRateIsEmpirical(t *testing.T) {
	// 4 packets over 2000 µs = 2000 pkt/s.
	tr := &Trace{Streams: [][]TraceRec{{
		{Delay: 500, Batch: 1}, {Delay: 500, Batch: 2}, {Delay: 1000, Batch: 1},
	}}}
	got := Replay(tr)[0].Rate()
	if got != 2000 {
		t.Fatalf("replay Rate = %v, want empirical 2000", got)
	}
}

func TestTraceHashDistinguishesContent(t *testing.T) {
	a := &Trace{Streams: [][]TraceRec{{{Delay: 10, Batch: 1}}}}
	b := &Trace{Streams: [][]TraceRec{{{Delay: 10, Batch: 2}}}}
	c := &Trace{Streams: [][]TraceRec{{{Delay: 10.0000001, Batch: 1}}}}
	if a.Hash() == b.Hash() || a.Hash() == c.Hash() {
		t.Fatal("distinct traces share a hash")
	}
	same := &Trace{Streams: [][]TraceRec{{{Delay: 10, Batch: 1}}}}
	if a.Hash() != same.Hash() {
		t.Fatal("equal traces must share a hash")
	}
}

func TestReplayCacheID(t *testing.T) {
	tr := sampleTrace(t)
	per := Replay(tr)
	id0 := per[0].(interface{ CacheID() string }).CacheID()
	id1 := per[1].(interface{ CacheID() string }).CacheID()
	if id0 == id1 {
		t.Fatal("different streams of one trace share a CacheID")
	}
	// Content-addressed: an identical trace loaded separately yields
	// the same identity; a different trace does not.
	var buf bytes.Buffer
	WriteTrace(&buf, tr)
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := Replay(back)[0].(interface{ CacheID() string }).CacheID(); got != id0 {
		t.Fatal("reloaded identical trace changed CacheID")
	}
	other := &Trace{Streams: [][]TraceRec{{{Delay: 1, Batch: 1}}}}
	if got := Replay(other)[0].(interface{ CacheID() string }).CacheID(); got == id0 {
		t.Fatal("different trace shares CacheID")
	}
}

// TestSynthesizeCoversHorizon pins that every synthesized stream's
// cumulative delay passes the horizon (the final draw may overshoot),
// so a replayed run never drains before the recording horizon.
func TestSynthesizeCoversHorizon(t *testing.T) {
	tr := sampleTrace(t)
	for i, recs := range tr.Streams {
		var at des.Time
		for _, r := range recs {
			at += r.Delay
		}
		if at <= 100*des.Millisecond {
			t.Fatalf("stream %d: synthesized span %v ends before the horizon", i, at)
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a := sampleTrace(t)
	b := sampleTrace(t)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Synthesize is not deterministic")
	}
	if a.Events() == 0 {
		t.Fatal("empty synthesis")
	}
}
