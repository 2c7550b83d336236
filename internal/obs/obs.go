// Package obs is the simulator's observability layer: a structured
// event stream that the simulation runner publishes to a Recorder, with
// sinks for Chrome trace-event JSON (viewable at ui.perfetto.dev), CSV
// time series, and a streaming in-memory Metrics snapshot.
//
// The contract is zero overhead when disabled: every emission site in
// the simulator is guarded by a nil-recorder check, so a run without a
// Recorder constructs no events and pays exactly one predictable branch
// per site. Recorders only observe — they never perturb the simulated
// system, so a run produces identical Results with and without one.
//
// Times are float64 microseconds, the simulation's native unit, which
// keeps the sinks decoupled from the DES engine (and maps 1:1 onto the
// trace-event format's microsecond timestamps).
package obs

import "fmt"

// Kind classifies an event. Packet-lifecycle kinds carry the packet's
// stream/entity/seq; processor kinds carry only Proc; gauge kinds carry
// a sampled level in Val.
type Kind uint8

const (
	// KindArrival marks a packet entering the system.
	KindArrival Kind = iota
	// KindEnqueue marks a packet (or its ready stack) queued because it
	// could not be served immediately.
	KindEnqueue
	// KindDispatch marks a packet leaving a queue for a processor;
	// Dur is the time it waited since arrival.
	KindDispatch
	// KindExecStart marks service beginning; Dur is the charged
	// execution time and Val the displacing references x the entity
	// suffered since it last ran on this processor (+Inf when cold,
	// also flagged FlagCold).
	KindExecStart
	// KindExecEnd marks service completing; Dur is the protocol
	// execution time actually spent (lock spin excluded).
	KindExecEnd
	// KindMigration marks a completion on a different processor than
	// the entity's previous one.
	KindMigration
	// KindColdStart marks an entity running on a processor it had
	// never used.
	KindColdStart
	// KindSpill marks a Hybrid packet overflowing its stack's queue
	// onto the shared locking path.
	KindSpill
	// KindProcBusy marks a processor leaving the background workload
	// for protocol work; Dur is the idle interval just ended.
	KindProcBusy
	// KindProcIdle marks a processor returning to the background
	// workload; Dur is the busy interval just ended.
	KindProcIdle
	// KindProcDown marks a processor failing (fault injection): it
	// serves no protocol work until the matching KindProcUp.
	KindProcDown
	// KindProcUp marks a failed processor recovering, with a cold
	// cache; Dur is the down interval just ended.
	KindProcUp
	// KindDrop marks a packet leaving the system unserved — rejected
	// by a full bounded queue or lost to injected packet loss. Val is
	// the drop reason (see DropReason*).
	KindDrop
	// KindGaugeQueue samples the number of packets waiting in all
	// queues (Val).
	KindGaugeQueue
	// KindGaugeOverflow samples the Hybrid shared overflow queue (Val).
	KindGaugeOverflow
	// KindGaugeHeap samples the DES pending-event count (Val).
	KindGaugeHeap
	// KindGaugeDispNP samples the cumulative non-protocol displacing
	// references settled across all processors (Val).
	KindGaugeDispNP
	// KindGaugeDispProto samples the cumulative protocol displacing
	// references across all processors (Val).
	KindGaugeDispProto

	numKinds
)

var kindNames = [numKinds]string{
	"arrival", "enqueue", "dispatch", "exec_start", "exec_end",
	"migration", "cold_start", "spill", "proc_busy", "proc_idle",
	"proc_down", "proc_up", "drop",
	"gauge_queue", "gauge_overflow", "gauge_heap",
	"gauge_disp_np", "gauge_disp_proto",
}

// Drop reasons carried in a KindDrop event's Val field.
const (
	// DropReasonQueue marks a packet rejected because the queue it
	// would join was at its configured capacity.
	DropReasonQueue = 0
	// DropReasonLoss marks a packet removed by injected packet loss.
	DropReasonLoss = 1
)

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// dropReasonNames maps DropReason* values to the readable strings the
// CSV sink emits in its reason column.
var dropReasonNames = [2]string{"queue", "loss"}

// DropReasonString renders a KindDrop event's Val as the readable drop
// reason ("queue" or "loss"); unknown values render as "".
func DropReasonString(v float64) string {
	i := int(v)
	if float64(i) == v && i >= 0 && i < len(dropReasonNames) {
		return dropReasonNames[i]
	}
	return ""
}

// Gauge reports whether k is a periodic gauge sample.
func (k Kind) Gauge() bool { return k >= KindGaugeQueue && k < numKinds }

// Flags annotate an ExecStart event.
type Flags uint8

const (
	// FlagCold marks a cold start (the entity never ran on this
	// processor).
	FlagCold Flags = 1 << iota
	// FlagMigrated marks execution on a different processor than the
	// entity's previous completion.
	FlagMigrated
	// FlagLocked marks service through the shared lock-protected path
	// (Locking paradigm, or a Hybrid overflow packet).
	FlagLocked
	// FlagWarm marks a warm execution: the entity's footprint
	// displacement on the processor is finite and below the F1 = 0.5
	// knee — the same predicate the simulator's WarmFraction counts, so
	// interval aggregators can reproduce that metric from the stream.
	FlagWarm
)

// flagNames holds every flag combination, indexed by the Flags value,
// so String is a table lookup — the sinks call it per event and must
// not allocate.
var flagNames = [16]string{
	"", "cold", "migrated", "cold|migrated",
	"locked", "cold|locked", "migrated|locked", "cold|migrated|locked",
	"warm", "cold|warm", "migrated|warm", "cold|migrated|warm",
	"locked|warm", "cold|locked|warm", "migrated|locked|warm",
	"cold|migrated|locked|warm",
}

func (f Flags) String() string {
	if int(f) < len(flagNames) {
		return flagNames[f]
	}
	return flagNames[f&15]
}

// Event is one observation. Fields that do not apply to the Kind are
// -1 (indices) or 0 (payloads).
type Event struct {
	T      float64 // simulation time, µs
	Kind   Kind
	Proc   int     // processor index, -1 when not applicable
	Stream int     // packet stream, -1 when not applicable
	Entity int     // footprint entity, -1 when not applicable
	Seq    uint64  // packet serial number (1-based; 0 for non-packet events)
	Dur    float64 // duration payload, µs (wait, exec, busy/idle interval)
	Val    float64 // numeric payload (displacing refs, gauge level)
	Flags  Flags
}

// Recorder receives the event stream. Implementations need not be
// goroutine-safe: the DES backend is single-threaded, the live backend
// serializes every emission under its dispatch lock, and each run owns
// its recorder (attach distinct recorders to concurrent runs).
type Recorder interface {
	Record(Event)
}

// teeRecorder fans events out to several recorders.
type teeRecorder []Recorder

func (t teeRecorder) Record(e Event) {
	for _, r := range t {
		r.Record(e)
	}
}

// Multi returns a Recorder forwarding each event to every non-nil rec.
// With zero or one non-nil recorders it returns nil or that recorder
// directly, so callers can chain unconditionally.
func Multi(recs ...Recorder) Recorder {
	var t teeRecorder
	for _, r := range recs {
		if r != nil {
			t = append(t, r)
		}
	}
	switch len(t) {
	case 0:
		return nil
	case 1:
		return t[0]
	}
	return t
}

// FindMetrics returns the first *Metrics in rec (descending through
// recorders built by Multi), or nil. The simulator uses it to merge a
// user-attached metrics sink into Results.
func FindMetrics(rec Recorder) *Metrics {
	switch r := rec.(type) {
	case *Metrics:
		return r
	case teeRecorder:
		for _, c := range r {
			if m := FindMetrics(c); m != nil {
				return m
			}
		}
	}
	return nil
}
