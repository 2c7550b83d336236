package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// ChromeTrace streams events to w in the Chrome trace-event JSON array
// format, which loads directly in Perfetto (ui.perfetto.dev) and
// chrome://tracing. The layout is:
//
//   - process "processors" (pid 1): one track per simulated processor,
//     with a B/E slice for every packet execution (named after the
//     stream it served), instant markers for migrations, cold starts
//     and spills, and counter tracks for the periodic gauges.
//   - process "streams" (pid 2): one track per stream, with an async
//     b/e span per packet from arrival to completion — the packet's
//     whole life, queueing included.
//
// Events stream out as they are recorded (nothing is buffered beyond a
// bufio.Writer), so arbitrarily long runs trace in constant memory.
// Close writes the closing bracket and flushes; the result is invalid
// JSON until then.
//
// Per-event records are serialized by hand into a reused scratch buffer
// — the map[string]any + json.Marshal route allocated a dozen objects
// per event, which dominated traced-run profiles. Only the one-time
// naming metadata still goes through encoding/json.
type ChromeTrace struct {
	writer
	started bool
	procs   map[int]bool   // tids announced on pid 1
	streams map[int]string // tids announced on pid 2 → cached "stream N" name
}

const (
	pidProcs   = 1
	pidStreams = 2
)

// NewChromeTrace returns a sink writing the JSON array to w.
func NewChromeTrace(w io.Writer) *ChromeTrace {
	return &ChromeTrace{
		writer:  newWriter(w, 256),
		procs:   map[int]bool{},
		streams: map[int]string{},
	}
}

// begin starts one record in the scratch buffer, handling array
// punctuation, and returns the buffer to append to. Callers finish with
// write.
func (c *ChromeTrace) begin() []byte {
	b := c.row[:0]
	if !c.started {
		b = append(b, "[\n"...)
		c.started = true
	} else {
		b = append(b, ",\n"...)
	}
	return b
}

// raw writes one trace-event object built by encoding/json — used only
// for the rare metadata records.
func (c *ChromeTrace) raw(v map[string]any) {
	if !c.ok() {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		c.err = err
		return
	}
	c.write(append(c.begin(), data...))
}

// meta emits a metadata record (process/thread naming).
func (c *ChromeTrace) meta(name string, pid, tid int, args map[string]any) {
	c.raw(map[string]any{"ph": "M", "name": name, "pid": pid, "tid": tid, "args": args})
}

func (c *ChromeTrace) announceProc(p int) {
	if p < 0 || c.procs[p] {
		return
	}
	if len(c.procs) == 0 {
		c.meta("process_name", pidProcs, 0, map[string]any{"name": "processors"})
	}
	c.procs[p] = true
	c.meta("thread_name", pidProcs, p, map[string]any{"name": fmt.Sprintf("cpu %d", p)})
	c.meta("thread_sort_index", pidProcs, p, map[string]any{"sort_index": p})
}

// announceStream announces the stream's track on first sight and
// returns its cached "stream N" display name.
func (c *ChromeTrace) announceStream(s int) string {
	if s < 0 {
		return ""
	}
	if name, ok := c.streams[s]; ok {
		return name
	}
	if len(c.streams) == 0 {
		c.meta("process_name", pidStreams, 0, map[string]any{"name": "streams"})
	}
	name := fmt.Sprintf("stream %d", s)
	c.streams[s] = name
	c.meta("thread_name", pidStreams, s, map[string]any{"name": name})
	c.meta("thread_sort_index", pidStreams, s, map[string]any{"sort_index": s})
	return name
}

// finiteXRefs maps +Inf (cold start) to -1 so the JSON stays valid; the
// cold flag carries the information.
func finiteXRefs(x float64) float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return -1
	}
	return x
}

func appendFloat(b []byte, x float64) []byte {
	return strconv.AppendFloat(b, x, 'g', -1, 64)
}

func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	b = append(b, s...) // kind/flag/track names: no characters needing escapes
	return append(b, '"')
}

// appendSpan appends an async packet-span record ("b"/"e") for pid 2.
func (c *ChromeTrace) appendSpan(b []byte, ph byte, seq uint64, stream int, t float64) []byte {
	b = append(b, `{"ph":"`...)
	b = append(b, ph)
	b = append(b, `","cat":"packet","id":"`...)
	b = strconv.AppendUint(b, seq, 10)
	b = append(b, `","name":"packet","pid":`...)
	b = strconv.AppendInt(b, pidStreams, 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(stream), 10)
	b = append(b, `,"ts":`...)
	b = appendFloat(b, t)
	return append(b, '}')
}

// counter emits a counter sample on the processors process.
func (c *ChromeTrace) counter(name string, t, v float64) {
	if !c.ok() {
		return
	}
	b := c.begin()
	b = append(b, `{"ph":"C","name":`...)
	b = appendString(b, name)
	b = append(b, `,"pid":1,"tid":0,"ts":`...)
	b = appendFloat(b, t)
	b = append(b, `,"args":{"value":`...)
	b = appendFloat(b, v)
	b = append(b, `}}`...)
	c.write(b)
}

// instant emits an instant marker on a processor track with one integer
// argument.
func (c *ChromeTrace) instant(name string, t float64, proc int, argName string, argVal int) {
	c.announceProc(proc)
	if !c.ok() {
		return
	}
	b := c.begin()
	b = append(b, `{"ph":"i","name":`...)
	b = appendString(b, name)
	b = append(b, `,"s":"t","pid":1,"tid":`...)
	b = strconv.AppendInt(b, int64(proc), 10)
	b = append(b, `,"ts":`...)
	b = appendFloat(b, t)
	b = append(b, `,"args":{`...)
	b = appendString(b, argName)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(argVal), 10)
	b = append(b, `}}`...)
	c.write(b)
}

// Record implements Recorder.
func (c *ChromeTrace) Record(e Event) {
	switch e.Kind {
	case KindArrival:
		c.announceStream(e.Stream)
		if !c.ok() {
			return
		}
		c.write(c.appendSpan(c.begin(), 'b', e.Seq, e.Stream, e.T))
	case KindExecStart:
		c.announceProc(e.Proc)
		name := c.announceStream(e.Stream)
		if !c.ok() {
			return
		}
		b := c.begin()
		b = append(b, `{"ph":"B","cat":"exec","name":`...)
		b = appendString(b, name)
		b = append(b, `,"pid":1,"tid":`...)
		b = strconv.AppendInt(b, int64(e.Proc), 10)
		b = append(b, `,"ts":`...)
		b = appendFloat(b, e.T)
		b = append(b, `,"args":{"seq":`...)
		b = strconv.AppendUint(b, e.Seq, 10)
		b = append(b, `,"entity":`...)
		b = strconv.AppendInt(b, int64(e.Entity), 10)
		b = append(b, `,"exec_us":`...)
		b = appendFloat(b, e.Dur)
		b = append(b, `,"xrefs":`...)
		b = appendFloat(b, finiteXRefs(e.Val))
		b = append(b, `,"flags":`...)
		b = appendString(b, e.Flags.String())
		b = append(b, `}}`...)
		c.write(b)
	case KindExecEnd:
		c.announceProc(e.Proc)
		if !c.ok() {
			return
		}
		b := c.begin()
		b = append(b, `{"ph":"E","pid":1,"tid":`...)
		b = strconv.AppendInt(b, int64(e.Proc), 10)
		b = append(b, `,"ts":`...)
		b = appendFloat(b, e.T)
		b = append(b, '}')
		c.write(b)
		if e.Stream >= 0 {
			c.announceStream(e.Stream)
			if !c.ok() {
				return
			}
			c.write(c.appendSpan(c.begin(), 'e', e.Seq, e.Stream, e.T))
		}
	case KindMigration:
		c.instant("migration", e.T, e.Proc, "entity", e.Entity)
	case KindColdStart:
		c.instant("cold start", e.T, e.Proc, "entity", e.Entity)
	case KindSpill:
		// A spill may happen before a processor is chosen (Proc -1);
		// pin those markers to track 0 rather than dropping them.
		proc := e.Proc
		if proc < 0 {
			proc = 0
		}
		c.instant("spill", e.T, proc, "stream", e.Stream)
	case KindProcDown:
		c.instant("proc down", e.T, e.Proc, "proc", e.Proc)
	case KindProcUp:
		c.instant("proc up", e.T, e.Proc, "proc", e.Proc)
	case KindDrop:
		// Drops happen before a processor is involved; pin the marker
		// to track 0 and carry the stream that lost the packet.
		c.instant("drop", e.T, 0, "stream", e.Stream)
	case KindGaugeQueue:
		c.counter("queued packets", e.T, e.Val)
	case KindGaugeOverflow:
		c.counter("overflow queue", e.T, e.Val)
	case KindGaugeHeap:
		c.counter("event heap", e.T, e.Val)
	case KindGaugeDispNP:
		c.counter("disp refs (non-protocol)", e.T, e.Val)
	case KindGaugeDispProto:
		c.counter("disp refs (protocol)", e.T, e.Val)
	}
	// KindEnqueue, KindDispatch, KindProcBusy and KindProcIdle carry no
	// extra visual information: waiting shows as the gap inside the
	// packet's async span, busy/idle as the presence of exec slices.
}

// Close terminates the JSON array and flushes. Events recorded after
// Close are dropped.
func (c *ChromeTrace) Close() error {
	if c.ok() {
		if !c.started {
			c.started = true
			c.write(append(c.row[:0], '['))
		}
		c.write(append(c.row[:0], "\n]\n"...))
	}
	return c.writer.Close()
}
