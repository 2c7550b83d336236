// Package sim is the multiprocessor protocol-processing simulation at the
// heart of the study: N processors serve packet streams under a
// parallelization paradigm (Locking or IPS) and an affinity scheduling
// policy, while a general non-protocol workload displaces protocol
// footprints from the caches whenever processors are otherwise idle.
//
// Per-packet service times come from the analytic model in internal/core,
// parameterized by the calibration measurements — exactly the structure of
// the paper's own simulator (Section 3).
package sim

import (
	"fmt"
	"math"
	"sync/atomic"

	"affinity/internal/core"
	"affinity/internal/des"
	"affinity/internal/faults"
	"affinity/internal/obs"
	"affinity/internal/sched"
	"affinity/internal/topo"
	"affinity/internal/traffic"
	"affinity/internal/workload"
)

// Paradigm selects the protocol parallelization alternative.
type Paradigm int

const (
	// Locking is the shared protocol stack protected by locks: any
	// processor may process any packet.
	Locking Paradigm = iota
	// IPS gives each thread a private, independent protocol stack;
	// streams are partitioned across stacks and each stack processes
	// its packets serially.
	IPS
	// Hybrid combines the two (the companion TR's proposal): streams
	// are wired to independent stacks as under IPS, but when a stack's
	// queue builds past HybridOverflow, excess packets spill to a
	// shared, lock-protected path that any idle processor may serve —
	// IPS latency on smooth traffic, Locking-like robustness to bursts.
	Hybrid
)

func (p Paradigm) String() string {
	switch p {
	case Locking:
		return "Locking"
	case IPS:
		return "IPS"
	case Hybrid:
		return "Hybrid"
	default:
		return fmt.Sprintf("Paradigm(%d)", int(p))
	}
}

// Params configures one simulation run.
type Params struct {
	Model    *core.Model // nil selects core.NewModel()
	Paradigm Paradigm
	Policy   sched.Kind

	Processors int // 0 selects the model platform's processor count
	Streams    int
	Stacks     int // IPS only; 0 selects min(Streams, Processors)

	// Topology, when non-nil, shapes the processors into sockets × cores
	// with per-level reload transients: a migrating packet's reload
	// transient is scaled by topo.TransientScale(last, chosen) — 1 within
	// a core, SameSocketTransient within a socket, CrossSocketTransient
	// across sockets (see internal/topo). nil (or any 1-socket topology)
	// is the paper's flat machine and leaves every charge bit-identical
	// to the topology-free model. When Processors is 0 the topology's
	// core count supplies it; otherwise the two must agree.
	Topology *topo.Topology

	// Arrival is the per-stream arrival process.
	Arrival traffic.Spec
	// ArrivalPerStream optionally gives each stream its own arrival
	// process (heterogeneous workloads); when set it must have exactly
	// Streams entries and overrides Arrival.
	ArrivalPerStream []traffic.Spec
	// Workload, when non-nil, is a declarative multi-class workload spec
	// (Zipf-skewed rates, ON/OFF modulation; see internal/workload).
	// WithDefaults expands it deterministically into ArrivalPerStream
	// and sets Streams to its total, so both backends derive identical
	// arrival sequences from one spec file. An explicit ArrivalPerStream
	// wins; an explicit Streams count must match the spec's total.
	Workload *workload.Spec
	// Background is the non-protocol workload (intensity V etc.).
	// nil selects workload.Default(); use &workload.NonProtocol{} (or
	// workload.Idle()) for the V = 0 host.
	Background *workload.NonProtocol

	// LockOverhead is the fixed per-packet cost (µs) of lock management
	// under Locking; LockCritFrac is the fraction of the packet's base
	// execution spent holding the shared-stack lock, which bounds
	// aggregate Locking throughput at 1/(LockCritFrac·exec).
	LockOverhead float64
	LockCritFrac float64

	// CodeSharedFrac is the fraction of a footprint shared between
	// protocol entities (the protocol text and shared tables): execution
	// by other protocol entities displaces only the private remainder.
	// It applies to the Locking paradigm, whose streams run through one
	// shared stack (0 selects the default 0.5). Under IPS each stack is
	// a fully independent replica, so inter-stack displacement is always
	// full strength and this field is ignored.
	CodeSharedFrac float64

	// DataTouch is an extra fixed per-packet cost (µs) for data-touching
	// operations (copying / software checksumming); 0 reproduces the
	// paper's non-data-touching configuration.
	DataTouch float64

	// HybridOverflow is the stack queue depth beyond which arrivals
	// spill to the shared locking path (Hybrid paradigm only; 0 selects
	// the default of 2).
	HybridOverflow int

	// MRULookahead bounds how many waiting packets (or ready stacks) an
	// idle processor examines for an affine one before taking the FIFO
	// head under the MRU policies. 0 selects the default of 4 — a small
	// bounded scan, as a real dispatcher running under the queue lock
	// would use.
	MRULookahead int

	// FDRebalance is the FlowDirector re-home trigger depth: a flow
	// whose home queue already holds this many waiting packets is
	// re-homed to a less-loaded core (see sched.HashConfig.Rebalance).
	// 0 selects the default (sched.DefaultRebalance); a negative value
	// disables rebalancing, making FlowDirector behave exactly like RSS.
	// Ignored by every other policy.
	FDRebalance int

	// hashIdentity replaces the hash-dispatch policies' stream-hash mix
	// with the identity function (see sched.HashConfig). Only tests set
	// it, through WithHashIdentity.
	hashIdentity bool

	// Steal is the AffinitySteal policy family's parameter point
	// (steal penalty µs, steal depth threshold, cold-start bias; see
	// sched.StealParams). The zero value is the FCFS corner;
	// Penalty = +Inf runs the Wired-Streams dispatcher itself.
	// Ignored by every other policy.
	Steal sched.StealParams

	Seed int64

	// Warmup discards packets that arrive before this time; measurement
	// runs until MeasuredPackets have completed or MaxTime is reached.
	// The batch-means confidence interval groups the measured delays
	// into batches of max(MeasuredPackets/30, 1).
	Warmup          des.Time
	MeasuredPackets int
	MaxTime         des.Time

	// Faults, when non-nil and non-empty, is the deterministic
	// fault-injection plan: timed processor failures/recoveries,
	// transient slow-downs, arrival bursts and packet-loss probability
	// changes (see internal/faults). A nil or empty plan is the healthy
	// system and leaves every published RNG draw and result untouched.
	Faults *faults.Plan

	// MaxQueueDepth, when positive, bounds each waiting queue (the
	// central or per-pool queue under Locking, each stack queue and the
	// shared overflow queue under IPS/Hybrid): an arrival that would
	// push a queue past the bound is dropped instead of enqueued,
	// turning unbounded saturation into measured packet loss. 0 keeps
	// the historical unbounded queues.
	MaxQueueDepth int

	// Recorder, when non-nil, receives the run's structured event
	// stream: packet lifecycle (arrival, enqueue, dispatch, exec
	// start/end), migrations, cold starts, Hybrid spills, per-processor
	// busy/idle transitions, and periodic gauges (see internal/obs).
	// Recorders only observe — a run produces identical Results with
	// and without one — and a nil Recorder costs a single predictable
	// branch per emission site. Gauges are sampled every GaugePeriod.
	Recorder obs.Recorder

	// DecisionRecorder, when non-nil, receives the decision ledger:
	// every dispatch decision with the candidate processors it
	// considered, their predicted warm/cold state and execution cost
	// (see obs.Decision). Candidate costs come from the same pure model
	// functions service charging uses, so — like Recorder — a decision
	// recorder only observes and never perturbs Results.
	DecisionRecorder obs.DecisionRecorder

	// DecisionOverride, when non-nil, substitutes dispatch decisions as
	// the run takes them — the counterfactual replay hook (see
	// internal/policysearch and DESIGN.md §14). It is called at every
	// decision site, in exactly the order a DecisionRecorder observes
	// decisions, with the decision's 0-based ordinal, its point, the
	// candidate set and the dispatcher's factual choice, and returns the
	// processor to run instead; the returned processor must be one of
	// cands. The dispatcher's own choice — including its RNG draws — is
	// made before the override applies, so an override that always
	// returns the factual choice reproduces the original Results bit for
	// bit, and a single substitution replays the recorded prefix exactly
	// and free-runs from the divergence point. An attached
	// DecisionRecorder records the substituted choice (the ledger
	// reflects what ran). Runs with an override are never cached by
	// sim.Pool, and the live backend rejects it (replay requires the
	// DES's bit determinism).
	DecisionOverride DecisionOverride
}

// DecisionOverride substitutes one run's dispatch decisions; see
// Params.DecisionOverride.
type DecisionOverride func(n uint64, point obs.DecisionPoint, cands []int, chosen int) int

// WithDefaults returns a copy with zero fields replaced by defaults.
func (p Params) WithDefaults() Params {
	if p.Model == nil {
		p.Model = core.NewModel()
	}
	if p.Processors == 0 {
		if p.Topology != nil {
			p.Processors = p.Topology.Processors()
		} else {
			p.Processors = p.Model.Platform.Processors
		}
	}
	if p.Workload != nil && p.ArrivalPerStream == nil {
		// Expand only when the expansion is coherent; otherwise leave
		// the fields alone so Validate can report what is wrong.
		if per, err := p.Workload.Generate(); err == nil &&
			(p.Streams == 0 || p.Streams == len(per)) {
			p.ArrivalPerStream = per
			p.Streams = len(per)
		}
	}
	if p.Streams == 0 {
		p.Streams = p.Processors
	}
	if (p.Paradigm == IPS || p.Paradigm == Hybrid) && p.Stacks == 0 {
		p.Stacks = min(p.Streams, p.Processors)
	}
	if p.Arrival == nil {
		p.Arrival = traffic.Poisson{PacketsPerSec: 1000}
	}
	if p.Background == nil {
		bg := workload.Default()
		p.Background = &bg
	}
	if p.MRULookahead == 0 {
		p.MRULookahead = 4
	}
	if p.Policy == sched.FlowDirector && p.FDRebalance == 0 {
		p.FDRebalance = sched.DefaultRebalance
	}
	if p.Paradigm == Locking || p.Paradigm == Hybrid {
		if p.LockOverhead == 0 {
			p.LockOverhead = 12
		}
		if p.LockCritFrac == 0 {
			p.LockCritFrac = 0.15
		}
	}
	if p.Paradigm == Hybrid && p.HybridOverflow == 0 {
		p.HybridOverflow = 2
	}
	switch p.Paradigm {
	case Locking:
		if p.CodeSharedFrac == 0 {
			p.CodeSharedFrac = 0.5
		}
	case IPS, Hybrid:
		p.CodeSharedFrac = 0 // independent replicas share nothing
	}
	if p.Warmup == 0 {
		p.Warmup = 200 * des.Millisecond
	}
	if p.MeasuredPackets == 0 {
		p.MeasuredPackets = 15000
	}
	if p.MaxTime == 0 {
		p.MaxTime = 120 * des.Second
	}
	return p
}

// Validate reports a descriptive error for inconsistent parameters.
func (p Params) Validate() error {
	if err := p.Model.Validate(); err != nil {
		return err
	}
	if err := p.Background.Validate(); err != nil {
		return err
	}
	switch p.Paradigm {
	case Locking:
		if !p.Policy.ForLocking() {
			return fmt.Errorf("sim: policy %v is not a Locking policy", p.Policy)
		}
	case IPS, Hybrid:
		if !p.Policy.ForIPS() {
			return fmt.Errorf("sim: policy %v is not an IPS policy", p.Policy)
		}
		if p.Stacks <= 0 {
			return fmt.Errorf("sim: %v needs at least one stack, got %d", p.Paradigm, p.Stacks)
		}
		if p.Paradigm == Hybrid && p.HybridOverflow < 1 {
			return fmt.Errorf("sim: hybrid overflow threshold %d must be ≥ 1", p.HybridOverflow)
		}
	default:
		return fmt.Errorf("sim: unknown paradigm %v", p.Paradigm)
	}
	if p.Processors <= 0 || p.Streams <= 0 {
		return fmt.Errorf("sim: processors %d / streams %d must be positive", p.Processors, p.Streams)
	}
	if p.Topology != nil {
		if err := p.Topology.Validate(p.Processors); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	if p.ArrivalPerStream != nil && len(p.ArrivalPerStream) != p.Streams {
		return fmt.Errorf("sim: %d per-stream arrival specs for %d streams",
			len(p.ArrivalPerStream), p.Streams)
	}
	if p.Workload != nil {
		if err := p.Workload.Validate(); err != nil {
			return err
		}
		if n := p.Workload.TotalStreams(); p.ArrivalPerStream == nil && n != p.Streams {
			return fmt.Errorf("sim: explicit stream count %d conflicts with workload spec's %d streams",
				p.Streams, n)
		}
	}
	// Arrival processes are user input (CLI flags, spec files): reject
	// invalid or infeasible parameters here, pre-run, so they surface as
	// errors instead of Build panics mid-run.
	if p.Arrival != nil && p.ArrivalPerStream == nil {
		if err := p.Arrival.Validate(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	for i, s := range p.ArrivalPerStream {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("sim: stream %d: %w", i, err)
		}
	}
	// The range checks are written to fail on NaN, which passes every
	// ordinary comparison; ±Inf is refused wherever it would become a
	// time or a cost.
	if !(p.LockCritFrac >= 0 && p.LockCritFrac <= 1) {
		return fmt.Errorf("sim: lock critical fraction %v outside [0, 1]", p.LockCritFrac)
	}
	if !(p.CodeSharedFrac >= 0 && p.CodeSharedFrac <= 1) {
		return fmt.Errorf("sim: code shared fraction %v outside [0, 1]", p.CodeSharedFrac)
	}
	if !(p.DataTouch >= 0 && p.LockOverhead >= 0) || math.IsInf(p.DataTouch, 1) || math.IsInf(p.LockOverhead, 1) {
		return fmt.Errorf("sim: per-packet overheads (data touch %v, lock %v) must be finite and ≥ 0",
			p.DataTouch, p.LockOverhead)
	}
	if p.MaxQueueDepth < 0 {
		return fmt.Errorf("sim: negative max queue depth %d", p.MaxQueueDepth)
	}
	// The measurement window: a NaN or infinite warmup measures no
	// packet, a NaN horizon never ends a run, and a negative packet
	// target stops it at the first measured packet.
	if !(p.Warmup >= 0) || math.IsInf(float64(p.Warmup), 1) {
		return fmt.Errorf("sim: warmup %v must be finite and ≥ 0", p.Warmup)
	}
	if !(p.MaxTime > 0) {
		return fmt.Errorf("sim: horizon %v must be positive", p.MaxTime)
	}
	if p.MeasuredPackets < 0 {
		return fmt.Errorf("sim: negative measured packet count %d", p.MeasuredPackets)
	}
	if p.Policy == sched.AffinitySteal {
		if math.IsNaN(p.Steal.Penalty) || p.Steal.Penalty < 0 {
			return fmt.Errorf("sim: steal penalty %v must be ≥ 0 µs (or +Inf to pin)", p.Steal.Penalty)
		}
		if p.Steal.DepthThreshold < 0 {
			return fmt.Errorf("sim: negative steal depth threshold %d", p.Steal.DepthThreshold)
		}
		if !(p.Steal.ColdBias >= 0 && p.Steal.ColdBias <= 1) {
			return fmt.Errorf("sim: steal cold-start bias %v outside [0, 1]", p.Steal.ColdBias)
		}
	}
	if err := p.Faults.Validate(p.Processors, p.Streams); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

// Results reports the metrics of one run. Delays and times are in
// microseconds; rates in packets per second.
type Results struct {
	Paradigm string
	Policy   string

	OfferedRate float64 // aggregate offered load
	Throughput  float64 // measured completion rate

	Completed      uint64 // measured completions
	CompletedTotal uint64 // all completions, warmup included
	Arrivals       uint64 // total arrivals over the run

	MeanDelay float64 // arrival → completion
	DelayCI   float64 // 95% batch-means half-width
	P95Delay  float64
	MaxDelay  float64

	// P95Clamped reports that P95Delay was truncated at the delay
	// histogram's fixed upper bound (100 ms): the true quantile lies in
	// the overflow mass, so P95Delay is a lower bound, not a
	// measurement. DelayOverflow is the fraction of measured delays at
	// or above that bound (0 on healthy runs).
	P95Clamped    bool
	DelayOverflow float64

	MeanService  float64 // execution time (model output + fixed costs)
	MeanQueueing float64 // arrival → service start
	MeanLockWait float64 // spin time on the shared-stack lock (Locking)

	WarmFraction float64 // completions with F1(x) < 0.5
	ColdStarts   uint64  // completions on a processor new to the entity
	Migrations   uint64  // completions on a different processor than last time
	Spills       uint64  // Hybrid packets diverted to the shared overflow path

	// ReorderedTotal counts completions that finished after a
	// later-arrived packet of the same stream had already completed —
	// the per-stream reordering a migrating policy inflicts on TCP-like
	// flows. MaxReorderDistance is the worst displacement observed, in
	// packets of the stream's arrival order; PerStreamReordered splits
	// the count by stream, holding only streams that actually reordered
	// (nil when none did — most runs — so a million-stream run that
	// never reorders allocates nothing for it). Policies that serve each
	// stream through one serial FIFO (Wired-Streams and RSS without
	// faults) are zero by construction.
	ReorderedTotal     uint64
	MaxReorderDistance uint64
	PerStreamReordered map[int]uint64

	// Dropped counts packets that left the system unserved — rejected
	// by a full bounded queue (MaxQueueDepth) or removed by injected
	// packet loss; DropFraction is Dropped / Arrivals. Packet
	// conservation becomes Arrivals = CompletedTotal + InFlightAtEnd +
	// QueueAtEnd + Dropped.
	Dropped      uint64
	DropFraction float64

	// GoodputPPS is the rate of packets actually delivered (all
	// completions over the whole run divided by simulated time) — under
	// faults and drops, the throughput the system sustained rather than
	// the load it was offered.
	GoodputPPS float64

	// PerProcDownTime is each processor's injected-failure downtime
	// (µs), open down intervals counted to the end of the run; nil when
	// the run had no fault plan.
	PerProcDownTime []float64

	// AffinityHits counts scheduling decisions that landed work on the
	// processor holding the entity's warm state, out of Placements
	// total decisions (see sched.PacketDispatcher.AffinityStats).
	AffinityHits uint64
	Placements   uint64

	Utilization   float64 // mean processor busy fraction
	QueueAtEnd    int     // packets still waiting when the run stopped
	InFlightAtEnd int     // packets in service when the run stopped
	Saturated     bool    // run could not sustain the offered load
	SimTime       des.Time

	// PerProcBusyTime is each processor's protocol-busy time (µs) over
	// the whole run — the exact integral behind Utilization.
	PerProcBusyTime []float64

	// EventsFired is the number of DES events the run executed;
	// RecorderEvents the number of observability events published to
	// Params.Recorder (0 when none is attached).
	EventsFired    uint64
	RecorderEvents uint64
	// DecisionsRecorded is the number of decisions published to
	// Params.DecisionRecorder (0 when none is attached).
	DecisionsRecorded uint64

	// Obs is the metrics snapshot merged from Params.Recorder when the
	// recorder chain contains an *obs.Metrics sink; nil otherwise.
	Obs *obs.Snapshot

	// PerStreamDelay holds each stream's mean delay; DelayFairness is
	// Jain's fairness index over them (1 = perfectly even).
	PerStreamDelay []float64
	DelayFairness  float64
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// entityCount returns how many footprint entities the run has.
func (p Params) entityCount() int {
	if p.Paradigm == IPS || p.Paradigm == Hybrid {
		return p.Stacks
	}
	return p.Streams
}

// entityOf maps a stream to its footprint entity.
func (p Params) entityOf(stream int) int {
	if p.Paradigm == IPS || p.Paradigm == Hybrid {
		return stream % p.Stacks
	}
	return stream
}

// WithHashIdentity returns p with the hash-dispatch policies' stream
// hash replaced by the identity map, which makes an RSS table's homes
// predictable. It is a test hook for the RSS ≡ Wired-Streams anchors,
// deliberately not a Params field: no CLI or facade user can reach it.
func WithHashIdentity(p Params) Params {
	p.hashIdentity = true
	return p
}

// totalEventsFired accumulates DES events across every completed run in
// the process; the experiment progress reporter derives events/sec
// from it.
var totalEventsFired atomic.Uint64

// TotalEventsFired returns the cumulative DES events fired by all
// sim.Run calls completed so far in this process. Live-backend runs
// share the host core but not this counter: their clock releases are
// not DES events.
func TotalEventsFired() uint64 { return totalEventsFired.Load() }

// Run executes one simulation on the DES backend and returns its
// metrics.
func Run(p Params) Results {
	p = p.WithDefaults()
	if err := p.Validate(); err != nil {
		panic(err)
	}
	r := newRunner(p)
	r.start()
	r.sim.RunUntil(p.MaxTime)
	res := r.Results()
	totalEventsFired.Add(res.EventsFired)
	return res
}
