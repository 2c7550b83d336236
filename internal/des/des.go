// Package des provides a small deterministic discrete-event simulation
// engine: a simulation clock, a time-ordered event list, and named
// pseudo-random number streams.
//
// Time is measured in microseconds throughout, matching the natural scale
// of the protocol-processing study (packet service times are a few hundred
// microseconds). Events scheduled for the same instant fire in the order
// they were scheduled, which keeps runs reproducible.
//
// Pending firings wait in two structures under one (time, seq) order.
// A Timer is an event source with at most one firing pending — a
// simulation's arrival streams and processors — and owns a fixed leaf
// of a winner tree (timer.go), where arming replays one leaf-to-root
// path and a timer fires in place. A one-shot event (ScheduleArg: the
// fault plan, the gauge sampler) waits in a Queue, a 4-ary heap that
// holds each node's (time, seq) key inline beside its pointer. The time
// key is the float's bit pattern with −0 folded to +0, so a compare is
// one 128-bit subtraction; a pop picks the least of four children with
// borrow masks instead of branches, walks the hole down to a leaf and
// sifts the last entry up from there (queue.go). Step fires the lesser
// of the two roots, and both draw seq from one counter, so a firing's
// place in the order does not depend on which structure held it.
//
// The engine is allocation-free in steady state: timers are made once,
// and one-shot event nodes are pooled on a free list and recycled as
// soon as they fire. An event is a non-capturing ArgHandler plus a
// pointer-shaped argument, so scheduling one allocates nothing once the
// pool covers the run's peak pending count.
package des

import (
	"fmt"
	"math"
)

// Time is a simulation timestamp or duration in microseconds.
type Time float64

// Common durations.
const (
	Microsecond Time = 1
	Millisecond Time = 1e3
	Second      Time = 1e6
)

// Seconds converts t to seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e6 }

// Millis converts t to milliseconds.
func (t Time) Millis() float64 { return float64(t) / 1e3 }

func (t Time) String() string {
	// Pick the unit by magnitude so negative durations format
	// symmetrically (-1500 is -1.500ms, not -1500.000µs).
	abs := t
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case abs >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	default:
		return fmt.Sprintf("%.3fµs", float64(t))
	}
}

// ArgHandler is the action run when an event fires. Using a
// non-capturing function (top-level function or method expression) with
// a pooled argument keeps the schedule path free of closure allocations.
type ArgHandler func(arg any)

// event is a scheduled handler; its time and sequence number are its
// key in the event queue.
type event struct {
	fn  ArgHandler
	arg any
}

// Simulator is a single-threaded discrete-event simulator.
// The zero value is not usable; call NewSimulator.
type Simulator struct {
	now     Time
	seq     uint64
	stopped bool
	fired   uint64
	armed   int // timers pending (timer.go)

	// events holds the pending one-shot events keyed by (at, seq): seq
	// breaks ties, so simultaneous events fire in scheduling order.
	events Queue[*event]

	// free is the recycled-node pool. Nodes move queue→free on fire and
	// free→queue on schedule, so a steady-state run stops allocating
	// once the pool covers its peak pending count.
	free []*event

	// timers[i] owns leaf i of tree, a winner tree of width leaves in
	// heap layout: tree[1] is the root, tree[width+i] leaf i.
	timers []*Timer
	tree   []node
	width  int32
}

// NewSimulator returns a simulator with the clock at zero.
func NewSimulator() *Simulator {
	return &Simulator{}
}

// Now returns the current simulation time.
func (s *Simulator) Now() Time { return s.now }

// Fired returns the number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of firings currently scheduled: one-shot
// events plus armed timers. A timer whose handler is running counts
// again only once it is armed again.
func (s *Simulator) Pending() int { return s.events.Len() + s.armed }

// ScheduleArg runs fn(arg) after delay. A negative delay is an error in
// the caller; it panics to surface the bug immediately.
func (s *Simulator) ScheduleArg(delay Time, fn ArgHandler, arg any) {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %v", delay))
	}
	s.ScheduleArgAt(s.now+delay, fn, arg)
}

// ScheduleArgAt runs fn(arg) at absolute time at, which must not precede
// the clock. A NaN time panics too.
func (s *Simulator) ScheduleArgAt(at Time, fn ArgHandler, arg any) {
	if !(at >= s.now) {
		panic(fmt.Sprintf("des: schedule at %v, not at or after now %v", at, s.now))
	}
	if fn == nil {
		panic("des: nil handler")
	}
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		ev = new(event)
	}
	ev.fn, ev.arg = fn, arg
	s.events.Push(at, s.seq, ev)
	s.seq++
}

// Stop makes Run return after the currently executing handler.
func (s *Simulator) Stop() { s.stopped = true }

// Step fires the next event, advancing the clock, and reports whether an
// event was available. A handler must not call Step, RunUntil or Run.
func (s *Simulator) Step() bool {
	if s.stopped {
		return false
	}
	if s.armed != 0 && s.timerNext() {
		s.fireTimer()
		return true
	}
	if s.events.Len() == 0 {
		return false
	}
	var ev *event
	s.now, ev = s.events.Pop()
	s.fired++
	fn, arg := ev.fn, ev.arg
	// Recycle before calling: fn/arg are already extracted, and the
	// handler may schedule (and thus reuse the node) immediately.
	ev.fn, ev.arg = nil, nil
	s.free = append(s.free, ev)
	fn(arg)
	return true
}

// RunUntil fires events until the event list is empty, Stop is called, or
// the next event lies beyond the horizon. The clock is left at the horizon
// if the simulation ran out the full interval, or at the last event time
// otherwise.
func (s *Simulator) RunUntil(horizon Time) {
	s.stopped = false
	for !s.stopped {
		if s.armed != 0 && s.timerNext() {
			if Time(math.Float64frombits(s.tree[1].at)) > horizon {
				s.now = horizon
				return
			}
			s.fireTimer()
			continue
		}
		if s.events.Len() == 0 {
			break
		}
		if at, _ := s.events.Min(); at > horizon {
			s.now = horizon
			return
		}
		s.Step()
	}
	if !s.stopped && s.now < horizon {
		s.now = horizon
	}
}

// Run fires events until none remain or Stop is called.
func (s *Simulator) Run() {
	s.stopped = false
	for s.Step() {
	}
}
