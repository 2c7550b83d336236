package obs

import "affinity/internal/stats"

// Metrics is the streaming in-memory sink: per-kind counters plus
// Accumulator-backed timers for the durations that matter (execution,
// queue wait, busy/idle intervals) and the sampled queue depth. It costs
// a few adds per event and holds O(processors) state, so it can stay
// attached to long runs.
type Metrics struct {
	events uint64
	counts [numKinds]uint64

	execTime  stats.Accumulator // KindExecEnd durations
	queueWait stats.Accumulator // KindDispatch durations
	busySpan  stats.Accumulator // KindProcIdle durations (closed busy intervals)
	idleSpan  stats.Accumulator // KindProcBusy durations (closed idle intervals)
	downSpan  stats.Accumulator // KindProcUp durations (closed down intervals)
	depth     stats.Accumulator // KindGaugeQueue samples
	heap      stats.Accumulator // KindGaugeHeap samples

	procBusy []float64 // per-processor closed busy time, µs
}

// NewMetrics returns an empty metrics sink.
func NewMetrics() *Metrics { return &Metrics{} }

// Record implements Recorder.
func (m *Metrics) Record(e Event) {
	m.events++
	if int(e.Kind) < len(m.counts) {
		m.counts[e.Kind]++
	}
	switch e.Kind {
	case KindDispatch:
		m.queueWait.Add(e.Dur)
	case KindExecEnd:
		m.execTime.Add(e.Dur)
	case KindProcBusy:
		m.idleSpan.Add(e.Dur)
	case KindProcIdle:
		m.busySpan.Add(e.Dur)
		if e.Proc >= 0 {
			for len(m.procBusy) <= e.Proc {
				m.procBusy = append(m.procBusy, 0)
			}
			m.procBusy[e.Proc] += e.Dur
		}
	case KindProcUp:
		m.downSpan.Add(e.Dur)
	case KindGaugeQueue:
		m.depth.Add(e.Val)
	case KindGaugeHeap:
		m.heap.Add(e.Val)
	}
}

// Summary condenses one Accumulator for a snapshot.
type Summary struct {
	N                      uint64
	Mean, StdDev, Min, Max float64
}

func summarize(a *stats.Accumulator) Summary {
	return Summary{N: a.N(), Mean: a.Mean(), StdDev: a.StdDev(), Min: a.Min(), Max: a.Max()}
}

// Snapshot is a point-in-time copy of the metrics, safe to keep after
// the run (and what the simulator merges into Results).
type Snapshot struct {
	Events uint64            // total events recorded
	Counts map[string]uint64 // per-kind event counts (kind name → count)

	// Shorthand counters pulled out of Counts for the events the study
	// cares about; each must match the simulator's own aggregate.
	Arrivals    uint64
	Dispatches  uint64
	Completions uint64 // KindExecEnd events
	Migrations  uint64
	ColdStarts  uint64
	Spills      uint64
	Drops       uint64 // KindDrop events (queue-full rejections + injected loss)
	ProcDowns   uint64 // KindProcDown events (injected processor failures)

	ExecTime     Summary // per-completion protocol execution, µs
	QueueWait    Summary // per-dispatch queueing delay, µs
	BusyInterval Summary // closed processor busy intervals, µs
	IdleInterval Summary // closed processor idle intervals, µs
	DownInterval Summary // closed processor down intervals, µs
	QueueDepth   Summary // sampled waiting packets
	HeapSize     Summary // sampled DES pending-event count

	// PerProcBusy is each processor's closed busy time, µs. A processor
	// still busy when the run stops has its open interval excluded, so
	// entries are lower bounds on the simulator's exact integrals.
	PerProcBusy []float64
}

// Snapshot returns a copy of the current state.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Events:      m.events,
		Counts:      make(map[string]uint64, numKinds),
		Arrivals:    m.counts[KindArrival],
		Dispatches:  m.counts[KindDispatch],
		Completions: m.counts[KindExecEnd],
		Migrations:  m.counts[KindMigration],
		ColdStarts:  m.counts[KindColdStart],
		Spills:      m.counts[KindSpill],
		Drops:       m.counts[KindDrop],
		ProcDowns:   m.counts[KindProcDown],

		ExecTime:     summarize(&m.execTime),
		QueueWait:    summarize(&m.queueWait),
		BusyInterval: summarize(&m.busySpan),
		IdleInterval: summarize(&m.idleSpan),
		DownInterval: summarize(&m.downSpan),
		QueueDepth:   summarize(&m.depth),
		HeapSize:     summarize(&m.heap),

		PerProcBusy: append([]float64(nil), m.procBusy...),
	}
	for k := Kind(0); k < numKinds; k++ {
		if m.counts[k] > 0 {
			s.Counts[k.String()] = m.counts[k]
		}
	}
	return s
}
