// Package des provides a small deterministic discrete-event simulation
// engine: a simulation clock, a time-ordered event list, and named
// pseudo-random number streams.
//
// Time is measured in microseconds throughout, matching the natural scale
// of the protocol-processing study (packet service times are a few hundred
// microseconds). Events scheduled for the same instant fire in the order
// they were scheduled, which keeps runs reproducible.
//
// The engine is allocation-free in steady state: event nodes are pooled
// on a free list and recycled as soon as they fire, and the
// pending-event list is an inlined 4-ary heap (no interface boxing, no
// container/heap round trips). An event is a non-capturing ArgHandler
// plus a pointer-shaped argument, so scheduling one allocates nothing
// once the pool covers the run's peak pending count.
package des

import (
	"fmt"
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

// event is a scheduled handler. seq breaks ties so that simultaneous
// events fire in scheduling order.
type event struct {
	at  Time
	seq uint64
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

	// events is a 4-ary min-heap ordered by (at, seq). A 4-ary layout
	// halves the tree depth of the binary heap and keeps children of a
	// node on one cache line, which measurably speeds the sift in
	// event-dense runs.
	events []*event

	// free is the recycled-node pool. Nodes move heap→free on fire and
	// free→heap on schedule, so a steady-state run stops allocating
	// once the pool covers its peak pending count.
	free []*event
}

// NewSimulator returns a simulator with the clock at zero.
func NewSimulator() *Simulator {
	return &Simulator{}
}

// Now returns the current simulation time.
func (s *Simulator) Now() Time { return s.now }

// Fired returns the number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of events currently scheduled.
func (s *Simulator) Pending() int { return len(s.events) }

// ScheduleArg runs fn(arg) after delay. A negative delay is an error in
// the caller; it panics to surface the bug immediately.
func (s *Simulator) ScheduleArg(delay Time, fn ArgHandler, arg any) {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %v", delay))
	}
	s.ScheduleArgAt(s.now+delay, fn, arg)
}

// ScheduleArgAt runs fn(arg) at absolute time at, which must not precede
// the clock.
func (s *Simulator) ScheduleArgAt(at Time, fn ArgHandler, arg any) {
	if at < s.now {
		panic(fmt.Sprintf("des: schedule at %v before now %v", at, s.now))
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
	ev.at, ev.seq, ev.fn, ev.arg = at, s.seq, fn, arg
	s.seq++
	s.events = append(s.events, ev)
	s.siftUp(len(s.events) - 1)
}

// less orders events by (time, sequence).
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp restores the heap property from leaf i toward the root.
func (s *Simulator) siftUp(i int) {
	ev := s.events[i]
	for i > 0 {
		parent := (i - 1) >> 2
		p := s.events[parent]
		if !less(ev, p) {
			break
		}
		s.events[i] = p
		i = parent
	}
	s.events[i] = ev
}

// siftDown restores the heap property from node i toward the leaves.
func (s *Simulator) siftDown(i int) {
	n := len(s.events)
	ev := s.events[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		// Find the smallest of up to four children.
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if less(s.events[c], s.events[min]) {
				min = c
			}
		}
		child := s.events[min]
		if !less(child, ev) {
			break
		}
		s.events[i] = child
		i = min
	}
	s.events[i] = ev
}

// pop removes and returns the earliest event.
func (s *Simulator) pop() *event {
	ev := s.events[0]
	n := len(s.events) - 1
	s.events[0] = s.events[n]
	s.events[n] = nil
	s.events = s.events[:n]
	if n > 0 {
		s.siftDown(0)
	}
	return ev
}

// Stop makes Run return after the currently executing handler.
func (s *Simulator) Stop() { s.stopped = true }

// Step fires the next event, advancing the clock, and reports whether an
// event was available.
func (s *Simulator) Step() bool {
	if len(s.events) == 0 || s.stopped {
		return false
	}
	ev := s.pop()
	s.now = ev.at
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
	for len(s.events) > 0 && !s.stopped {
		if s.events[0].at > horizon {
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
