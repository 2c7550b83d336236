package workload

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strconv"
	"strings"

	"affinity/internal/des"
	"affinity/internal/traffic"
)

// Trace is a recorded arrival history: for each stream, the exact
// (delay, batch) sequence its arrival process produced. Replaying a
// trace substitutes these draws for the process's RNG, so a captured
// run re-executes bit-identically — on either backend — and different
// policies can be contrasted on the very same arrivals.
type Trace struct {
	Streams [][]TraceRec
	// Rates holds each stream's nominal offered rate (pkt/s) at capture
	// time, so a replayed run reports the same OfferedRate as the
	// original bit-for-bit. Nil (hand-written traces) falls back to the
	// empirical rate over the recorded span.
	Rates []float64
}

// TraceRec is one arrival event: the delay since the stream's previous
// event and the number of packets arriving together.
type TraceRec struct {
	Delay des.Time
	Batch int
}

// Events returns the total number of recorded arrival events.
func (t *Trace) Events() int {
	n := 0
	for _, s := range t.Streams {
		n += len(s)
	}
	return n
}

// Hash returns a stable FNV-1a content hash of the trace, used as the
// cache identity of replay runs (a pointer-derived key could alias
// after the pointed-to trace is collected and the address reused).
func (t *Trace) Hash() string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(u uint64) {
		for i := range buf {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(len(t.Streams)))
	put(uint64(len(t.Rates)))
	for _, r := range t.Rates {
		put(math.Float64bits(r))
	}
	for _, s := range t.Streams {
		put(uint64(len(s)))
		for _, r := range s {
			put(math.Float64bits(float64(r.Delay)))
			put(uint64(r.Batch))
		}
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// traceHeader is the trace file magic; the version suffix gates format
// evolution.
const traceHeader = "# affinity-trace v1"

// WriteTrace writes the trace in its compact CSV format:
//
//	# affinity-trace v1 streams=N
//	stream,delay_us,batch
//	0,512.25,1
//	...
//
// Delays use Go's shortest round-trippable float formatting, so a
// written trace reads back bit-identical.
func WriteTrace(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s streams=%d\n", traceHeader, len(t.Streams))
	if t.Rates != nil {
		bw.WriteString("# rates_pps=")
		for i, r := range t.Rates {
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(strconv.FormatFloat(r, 'g', -1, 64))
		}
		bw.WriteByte('\n')
	}
	fmt.Fprintln(bw, "stream,delay_us,batch")
	for s, recs := range t.Streams {
		for _, r := range recs {
			bw.WriteString(strconv.Itoa(s))
			bw.WriteByte(',')
			bw.WriteString(strconv.FormatFloat(float64(r.Delay), 'g', -1, 64))
			bw.WriteByte(',')
			bw.WriteString(strconv.Itoa(r.Batch))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// ReadTrace parses a trace written by WriteTrace.
func ReadTrace(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("workload: empty trace file")
	}
	header := sc.Text()
	var streams int
	if _, err := fmt.Sscanf(header, traceHeader+" streams=%d", &streams); err != nil {
		return nil, fmt.Errorf("workload: bad trace header %q (want %q)", header, traceHeader+" streams=N")
	}
	if streams <= 0 || streams > 1<<20 {
		return nil, fmt.Errorf("workload: implausible trace stream count %d", streams)
	}
	if !sc.Scan() {
		return nil, fmt.Errorf("workload: missing trace column header")
	}
	t := &Trace{Streams: make([][]TraceRec, streams)}
	line := 2
	if rates, ok := strings.CutPrefix(sc.Text(), "# rates_pps="); ok {
		parts := strings.Split(rates, ",")
		if len(parts) != streams {
			return nil, fmt.Errorf("workload: %d rates for %d streams", len(parts), streams)
		}
		t.Rates = make([]float64, streams)
		for i, p := range parts {
			r, err := strconv.ParseFloat(p, 64)
			if err != nil || !(r >= 0) || math.IsInf(r, 1) {
				return nil, fmt.Errorf("workload: bad nominal rate %q", p)
			}
			t.Rates[i] = r
		}
		if !sc.Scan() {
			return nil, fmt.Errorf("workload: missing trace column header")
		}
		line++
	}
	if sc.Text() != "stream,delay_us,batch" {
		return nil, fmt.Errorf("workload: missing trace column header")
	}
	for sc.Scan() {
		line++
		row := sc.Text()
		if row == "" {
			continue
		}
		f1 := strings.IndexByte(row, ',')
		f2 := -1
		if f1 >= 0 {
			f2 = strings.IndexByte(row[f1+1:], ',')
		}
		if f1 < 0 || f2 < 0 {
			return nil, fmt.Errorf("workload: trace line %d: want stream,delay_us,batch", line)
		}
		f2 += f1 + 1
		s, err := strconv.Atoi(row[:f1])
		if err != nil || s < 0 || s >= streams {
			return nil, fmt.Errorf("workload: trace line %d: bad stream id %q", line, row[:f1])
		}
		delay, err := strconv.ParseFloat(row[f1+1:f2], 64)
		if err != nil || !(delay >= 0) || math.IsInf(delay, 1) {
			return nil, fmt.Errorf("workload: trace line %d: bad delay %q", line, row[f1+1:f2])
		}
		batch, err := strconv.Atoi(row[f2+1:])
		if err != nil || batch < 1 {
			return nil, fmt.Errorf("workload: trace line %d: bad batch %q", line, row[f2+1:])
		}
		t.Streams[s] = append(t.Streams[s], TraceRec{Delay: des.Time(delay), Batch: batch})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: reading trace: %w", err)
	}
	if t.Events() == 0 {
		return nil, fmt.Errorf("workload: trace has no arrival events")
	}
	return t, nil
}

// Record wraps each per-stream spec in a tee that appends every draw to
// the returned Trace as the simulation makes it. Recording is
// pass-through — a recorded run produces bit-identical Results — but it
// mutates the shared Trace, so recorded runs must never be served from
// the memoization cache (the wrapper reports HasSideEffects to
// sim.CacheKey).
func Record(per []traffic.Spec) ([]traffic.Spec, *Trace) {
	t := &Trace{Streams: make([][]TraceRec, len(per)), Rates: make([]float64, len(per))}
	wrapped := make([]traffic.Spec, len(per))
	for i, s := range per {
		t.Rates[i] = s.Rate()
		wrapped[i] = recordSpec{inner: s, trace: t, stream: i}
	}
	return wrapped, t
}

type recordSpec struct {
	inner  traffic.Spec
	trace  *Trace
	stream int
}

func (r recordSpec) Rate() float64   { return r.inner.Rate() }
func (r recordSpec) Validate() error { return r.inner.Validate() }
func (r recordSpec) String() string  { return fmt.Sprintf("record(%s)", r.inner) }

// HasSideEffects marks recording runs as uncacheable for sim.CacheKey.
func (r recordSpec) HasSideEffects() bool { return true }

func (r recordSpec) Build(rng *des.RNG) traffic.Process {
	return &recordProc{inner: r.inner.Build(rng), trace: r.trace, stream: r.stream}
}

type recordProc struct {
	inner  traffic.Process
	trace  *Trace
	stream int
}

func (p *recordProc) Next() (des.Time, int) {
	d, b := p.inner.Next()
	p.trace.Streams[p.stream] = append(p.trace.Streams[p.stream], TraceRec{Delay: d, Batch: b})
	return d, b
}

// Replay returns one replay spec per recorded stream. Each replays its
// stream's recorded draws verbatim; when a stream's records run out the
// process parks itself far beyond any plausible run horizon, so a
// replayed run sees exactly the recorded arrivals and nothing after.
func Replay(t *Trace) []traffic.Spec {
	per := make([]traffic.Spec, len(t.Streams))
	hash := t.Hash()
	for i := range per {
		per[i] = replaySpec{trace: t, hash: hash, stream: i}
	}
	return per
}

// exhaustedDelay parks a drained replay stream ~31 000 simulated years
// out: finite (heap-safe) but unreachable by any run horizon.
const exhaustedDelay = des.Time(1e18)

type replaySpec struct {
	trace  *Trace
	hash   string
	stream int
}

// Rate implements traffic.Spec: the nominal rate captured with the
// trace when present (so replayed runs report the original OfferedRate
// exactly), else the stream's empirical packet rate over its recorded
// span (0 for an empty stream).
func (r replaySpec) Rate() float64 {
	if r.trace.Rates != nil {
		return r.trace.Rates[r.stream]
	}
	var elapsed des.Time
	packets := 0
	for _, rec := range r.trace.Streams[r.stream] {
		elapsed += rec.Delay
		packets += rec.Batch
	}
	if elapsed <= 0 {
		return 0
	}
	return float64(packets) / elapsed.Seconds()
}

func (r replaySpec) String() string {
	return fmt.Sprintf("replay(#%s stream %d, %d events)", r.hash, r.stream, len(r.trace.Streams[r.stream]))
}

// Validate implements traffic.Spec.
func (r replaySpec) Validate() error {
	if r.trace == nil || r.stream < 0 || r.stream >= len(r.trace.Streams) {
		return fmt.Errorf("workload: replay stream %d outside trace", r.stream)
	}
	return nil
}

// CacheID gives replay runs a content-addressed cache identity (see
// Trace.Hash); sim.CacheKey uses it instead of rendering the struct,
// whose trace pointer would otherwise leak a reusable address into the
// key.
func (r replaySpec) CacheID() string {
	return fmt.Sprintf("workload.replay(#%s stream %d)", r.hash, r.stream)
}

func (r replaySpec) Build(*des.RNG) traffic.Process {
	if err := r.Validate(); err != nil {
		panic(err)
	}
	return &replayProc{recs: r.trace.Streams[r.stream]}
}

type replayProc struct {
	recs []TraceRec
	next int
}

func (p *replayProc) Next() (des.Time, int) {
	if p.next >= len(p.recs) {
		return exhaustedDelay, 1
	}
	rec := p.recs[p.next]
	p.next++
	return rec.Delay, rec.Batch
}

// Synthesize draws a trace directly from per-stream specs without
// running a simulation: each stream's process is built from the same
// seed-derived substream the simulation backends use ("arrivals-<i>",
// pinned by a cross-check test in internal/sim), and drawn until its
// cumulative delay passes the horizon. Replaying the result therefore
// reproduces exactly the arrivals a sim.Run with these specs and this
// seed would generate — which lets experiments contrast policies on
// identical arrivals without a capture run.
func Synthesize(per []traffic.Spec, seed int64, horizon des.Time) *Trace {
	t := &Trace{Streams: make([][]TraceRec, len(per)), Rates: make([]float64, len(per))}
	for i, s := range per {
		t.Rates[i] = s.Rate()
		proc := s.Build(des.Stream(seed, "arrivals-"+strconv.Itoa(i)))
		var at des.Time
		for at <= horizon {
			d, b := proc.Next()
			t.Streams[i] = append(t.Streams[i], TraceRec{Delay: d, Batch: b})
			at += d
		}
	}
	return t
}
