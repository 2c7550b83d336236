package bench

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"affinity/internal/obs"
)

// Span is one timed call into a layer.
type Span struct {
	Name       string
	Start, End time.Duration // since the log was created
	Parent     int           // index of the enclosing span, -1 for none
	Op         int           // the operation the span belongs to
	Lane       int           // concurrent siblings get distinct lanes
}

// Spans is a traced run's in-memory span log. Methods on a nil *Spans do
// nothing, so untraced operations run the same code as traced ones.
type Spans struct {
	mu   sync.Mutex
	t0   time.Time
	list []Span
}

// NewSpans returns an empty log whose clock starts now.
func NewSpans() *Spans { return &Spans{t0: time.Now()} }

// Begin opens a span and returns its index for End.
func (s *Spans) Begin(name string, parent, op, lane int) int {
	if s == nil {
		return -1
	}
	now := time.Since(s.t0)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, Span{Name: name, Start: now, Parent: parent, Op: op, Lane: lane})
	return len(s.list) - 1
}

// End closes span i.
func (s *Spans) End(i int) {
	if s == nil {
		return
	}
	now := time.Since(s.t0)
	s.mu.Lock()
	s.list[i].End = now
	s.mu.Unlock()
}

// WriteChrome writes the spans as Chrome trace-event JSON (loadable in
// ui.perfetto.dev), one process per log, one thread per lane.
func (s *Spans) WriteChrome(w io.Writer, process string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	evs := []event{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": process}}}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	for i, sp := range s.list {
		evs = append(evs, event{Name: sp.Name, Ph: "X", Ts: us(sp.Start), Dur: us(sp.End - sp.Start),
			Pid: 1, Tid: sp.Lane, Args: map[string]any{"id": i, "parent": sp.Parent, "op": sp.Op}})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs})
}

// Phases are the simulator event kinds host time is attributed to;
// "gauge" folds every periodic sample, "other" the migration, cold-start,
// spill, fault and drop markers.
var Phases = []string{"arrival", "enqueue", "dispatch", "exec_start", "exec_end",
	"proc_busy", "proc_idle", "gauge", "other"}

func phaseOf(k obs.Kind) int {
	switch {
	case k <= obs.KindExecEnd:
		return int(k) // arrival … exec_end
	case k == obs.KindProcBusy:
		return 5
	case k == obs.KindProcIdle:
		return 6
	case k.Gauge():
		return 7
	}
	return 8
}

// PhaseRecorder is an obs.Recorder that attributes host time to the
// simulator's event kinds: each event is charged the host time since the
// previous one, the work that produced it. It keeps the first events of
// the stream as the captured input the layer probes replay.
type PhaseRecorder struct {
	base time.Time
	last time.Duration
	ns   [9]time.Duration
	n    [9]uint64

	heapSum      float64
	heapN        uint64
	execs, colds uint64

	captured []obs.Event
}

// NewPhaseRecorder returns a recorder capturing up to capture events.
func NewPhaseRecorder(capture int) *PhaseRecorder {
	return &PhaseRecorder{base: time.Now(), captured: make([]obs.Event, 0, capture)}
}

// begin restarts the charge clock at the start of a run, so the gap
// between runs is charged to no phase.
func (r *PhaseRecorder) begin() { r.last = time.Since(r.base) }

// Record implements obs.Recorder.
func (r *PhaseRecorder) Record(e obs.Event) {
	now := time.Since(r.base)
	ph := phaseOf(e.Kind)
	r.ns[ph] += now - r.last
	r.n[ph]++
	r.last = now
	switch e.Kind {
	case obs.KindGaugeHeap:
		r.heapSum += e.Val
		r.heapN++
	case obs.KindExecStart:
		r.execs++
		if e.Flags&obs.FlagCold != 0 {
			r.colds++
		}
	}
	if len(r.captured) < cap(r.captured) {
		r.captured = append(r.captured, e)
	}
}
