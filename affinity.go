// Package affinity reproduces "The Performance Impact of Scheduling for
// Cache Affinity in Parallel Network Processing" (Salehi, Kurose,
// Towsley; HPDC-4, 1995): processor-cache affinity scheduling of
// parallelized UDP/IP/FDDI protocol processing on a shared-memory
// multiprocessor, evaluated with an analytic cache model driving a
// discrete-event simulation.
//
// This package is the public facade. The pieces live in internal
// packages and are re-exported here:
//
//   - The analytic execution-time model (internal/core): footprint
//     function u(R, L), displacement fractions F1/F2, and the two-level
//     reload-transient interpolation T(x).
//   - The multiprocessor simulation (internal/sim): Locking vs IPS
//     parallelization under the affinity scheduling policies
//     (internal/sched), with Poisson/bursty/packet-train traffic
//     (internal/traffic) and a displacing non-protocol workload
//     (internal/workload).
//   - The calibration pipeline (internal/calib): a trace-driven cache
//     simulator (internal/cachesim) replaying synthetic protocol
//     reference traces (internal/memtrace) to regenerate the paper's
//     measured packet times.
//   - The experiment suite (internal/exp): one experiment per paper
//     table/figure; see DESIGN.md and EXPERIMENTS.md.
//
// Quick start:
//
//	res := affinity.Run(affinity.Params{
//		Paradigm: affinity.Locking,
//		Policy:   affinity.MRU,
//		Streams:  8,
//		Arrival:  affinity.Poisson{PacketsPerSec: 2000},
//	})
//	fmt.Printf("mean delay %.1f µs\n", res.MeanDelay)
package affinity

import (
	"fmt"
	"io"
	"strings"

	"affinity/internal/cachesim"
	"affinity/internal/calib"
	"affinity/internal/core"
	"affinity/internal/des"
	"affinity/internal/exp"
	"affinity/internal/faults"
	"affinity/internal/live"
	"affinity/internal/obs"
	"affinity/internal/policysearch"
	"affinity/internal/sched"
	"affinity/internal/sim"
	"affinity/internal/topo"
	"affinity/internal/traffic"
	"affinity/internal/workload"
)

// Model types (the paper's analytic contribution).
type (
	// Model is the packet execution-time model: platform geometry,
	// displacing-workload locality and calibration anchors.
	Model = core.Model
	// Platform describes the multiprocessor and its cache hierarchy.
	Platform = core.Platform
	// CacheConfig describes one cache level.
	CacheConfig = core.CacheConfig
	// Calibration holds the measured packet times (t_warm, t_L1cold,
	// t_cold).
	Calibration = core.Calibration
	// WorkloadParams are the Singh–Stone–Thiebaut u(R, L) constants.
	WorkloadParams = core.WorkloadParams
)

// NewModel returns the paper's default model: SGI Challenge XL platform,
// MVS non-protocol workload, paper calibration.
func NewModel() *Model { return core.NewModel() }

// SGIChallengeXL returns the paper's experimental platform description.
func SGIChallengeXL() Platform { return core.SGIChallengeXL() }

// PaperCalibration returns the calibration used throughout the
// reproduction (t_cold anchored on the paper's 284.3 µs).
func PaperCalibration() Calibration { return core.PaperCalibration() }

// Simulation types.
type (
	// Params configures one simulation run.
	Params = sim.Params
	// Results reports one run's metrics.
	Results = sim.Results
	// Paradigm selects Locking or IPS parallelization.
	Paradigm = sim.Paradigm
	// Policy names a scheduling policy.
	Policy = sched.Kind
	// NonProtocol describes the displacing background workload.
	NonProtocol = workload.NonProtocol
)

// Parallelization paradigms.
const (
	// Locking is the shared, lock-protected protocol stack.
	Locking = sim.Locking
	// IPS is Independent Protocol Stacks.
	IPS = sim.IPS
	// Hybrid wires streams to independent stacks but spills queue
	// build-ups to a shared locking path (the companion TR's proposal).
	Hybrid = sim.Hybrid
)

// Scheduling policies.
const (
	// FCFS is the no-affinity Locking baseline.
	FCFS = sched.FCFS
	// MRU prefers each stream's most-recently-used processor.
	MRU = sched.MRU
	// ThreadPools uses per-processor thread pools with stealing.
	ThreadPools = sched.ThreadPools
	// WiredStreams statically binds streams to processors.
	WiredStreams = sched.WiredStreams
	// IPSWired binds each independent stack to one processor.
	IPSWired = sched.IPSWired
	// IPSMRU lets ready stacks prefer their most-recent processor.
	IPSMRU = sched.IPSMRU
	// IPSRandom places ready stacks on random idle processors (the IPS
	// no-affinity baseline).
	IPSRandom = sched.IPSRandom
	// RSS hashes each stream to a processor through a static NIC-style
	// indirection table (receive-side scaling): perfect affinity, no
	// rebalancing, never reorders a stream.
	RSS = sched.RSS
	// FlowDirector is RSS plus a hardware-style flow table that re-homes
	// a stream when its processor's queue backs up — trading in-flight
	// packet reordering for load balance.
	FlowDirector = sched.FlowDirector
	// AffinitySteal is the parameterized affinity/work-stealing family
	// (Params.Steal): warm-preferred placement with a gated steal of
	// another stream's head packet. Its corners reduce bit-for-bit to
	// FCFS (zero Steal), MRU (ColdBias 1) and WiredStreams (Penalty
	// +Inf); interior points are policies the paper never evaluated.
	AffinitySteal = sched.AffinitySteal
)

// StealParams parameterizes the AffinitySteal policy family
// (Params.Steal): Penalty is the minimum queueing age (µs) a packet
// must reach before a cold processor may steal it, DepthThreshold the
// backlog a cold processor must see before stealing at all, and
// ColdBias ∈ [0, 1] how strongly placement prefers a warm processor
// over an idle cold one.
type StealParams = sched.StealParams

// Topology describes the machine as sockets × cores with per-level
// reload-transient multipliers: a packet migrating within a socket pays
// SameSocketTransient × the flat-model transient, across sockets
// CrossSocketTransient ×. A nil Params.Topology (or any shape whose
// multipliers are both 1) is the flat machine and leaves every run
// bit-for-bit identical to the topology-free simulator.
type Topology = topo.Topology

// ParseTopology parses the affinitysim -topology syntax: "SxC" for S
// sockets of C cores (same-socket multiplier 1, cross-socket 1.5 when
// S > 1), or "SxC:same,cross" with both multipliers explicit.
func ParseTopology(s string) (*Topology, error) { return topo.Parse(s) }

// Traffic models.
type (
	// Poisson arrivals at a fixed mean rate.
	Poisson = traffic.Poisson
	// Deterministic constant-gap arrivals.
	Deterministic = traffic.Deterministic
	// Batch is bursty arrivals: Poisson burst events carrying
	// geometrically many packets.
	Batch = traffic.Batch
	// Train is the Jain–Routhier packet-train model.
	Train = traffic.Train
	// OnOff modulates a base arrival process with exponential ON/OFF
	// periods: arrivals flow at the base's rate during ON and pause
	// during OFF, giving Internet-style burstiness at a controlled
	// long-run rate.
	OnOff = traffic.OnOff
	// ArrivalSpec is any per-stream arrival process description.
	ArrivalSpec = traffic.Spec
)

// Workload-spec types (internal/workload): a declarative JSON
// description of an Internet-realistic client mix — named classes each
// with a traffic model, stream count, Zipf popularity skew and
// optional ON/OFF burst modulation — expanded deterministically into
// per-stream arrival processes (set Params.Workload, or call
// WorkloadSpec.Generate for the specs); plus arrival-trace record and
// replay for bit-identical re-execution.
type (
	// WorkloadSpec is a parsed workload description.
	WorkloadSpec = workload.Spec
	// WorkloadClass is one named client class within a WorkloadSpec.
	WorkloadClass = workload.Class
	// ArrivalTrace is a recorded per-stream arrival history.
	ArrivalTrace = workload.Trace
	// ArrivalTraceRec is one recorded arrival event.
	ArrivalTraceRec = workload.TraceRec
	// Time is simulated time in microseconds (the unit of Params.Warmup,
	// Params.MaxTime and trace delays).
	Time = des.Time
)

// ParseWorkload parses and validates a JSON workload spec.
func ParseWorkload(data []byte) (*WorkloadSpec, error) { return workload.Parse(data) }

// RecordArrivals wraps per-stream arrival specs so a run captures every
// draw into the returned trace. Recording runs are never memoized.
func RecordArrivals(per []ArrivalSpec) ([]ArrivalSpec, *ArrivalTrace) {
	return workload.Record(per)
}

// ReplayArrivals returns arrival specs that replay a recorded trace
// verbatim: the same arrivals, bit-for-bit, on either backend.
func ReplayArrivals(t *ArrivalTrace) []ArrivalSpec { return workload.Replay(t) }

// WriteArrivalTrace writes a trace in its text format; ReadArrivalTrace
// parses it back bit-identically.
func WriteArrivalTrace(w io.Writer, t *ArrivalTrace) error { return workload.WriteTrace(w, t) }

// ReadArrivalTrace parses a trace written by WriteArrivalTrace.
func ReadArrivalTrace(r io.Reader) (*ArrivalTrace, error) { return workload.ReadTrace(r) }

// FaultPlan is a deterministic schedule of fault events — processor
// failures and recoveries, slow-downs, arrival bursts, packet loss —
// consumed by the simulator via Params.Faults. The zero value (and nil)
// injects nothing and leaves runs byte-identical to fault-free ones.
type FaultPlan = faults.Plan

// ParseFaultPlan builds a FaultPlan from its textual form (the
// affinitysim -faults syntax), e.g. "down:0@500ms,up:0@1.5s,loss:0.01@0s".
func ParseFaultPlan(s string) (*FaultPlan, error) { return faults.Parse(s) }

// Run executes one simulation and returns its metrics.
func Run(p Params) Results { return sim.Run(p) }

// Backend selects an execution engine for RunBackend.
type Backend int

const (
	// BackendDES is the sequential discrete-event simulator
	// (deterministic: same Params+Seed, same Results).
	BackendDES Backend = iota
	// BackendLive is the concurrent goroutine backend: the same
	// dispatch policies and cost model as the DES, with one worker
	// goroutine per simulated processor, each parked until a virtual
	// clock releases it and contending on a real dispatch mutex. Where
	// no two events share an instant (Poisson arrivals, for example)
	// its Results equal the DES's bit for bit, EventsFired aside; where
	// events tie, the two backends may order the tie differently and
	// agree statistically. See internal/live and DESIGN.md §10.
	BackendLive
)

// String returns the backend's flag spelling ("des" or "live").
func (b Backend) String() string {
	switch b {
	case BackendDES:
		return "des"
	case BackendLive:
		return "live"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// ParseBackend parses a backend name as spelled on the affinitysim
// -backend flag: "des" or "live".
func ParseBackend(s string) (Backend, error) {
	switch strings.ToLower(s) {
	case "des":
		return BackendDES, nil
	case "live":
		return BackendLive, nil
	default:
		return 0, fmt.Errorf("unknown backend %q (want \"des\" or \"live\")", s)
	}
}

// RunBackend executes one run on the selected backend.
func RunBackend(b Backend, p Params) Results {
	if b == BackendLive {
		return live.Run(p)
	}
	return sim.Run(p)
}

// Pool is a memoizing simulation worker pool: it bounds how many
// simulations execute concurrently, serves repeated Params from a cache
// (runs with a Recorder attached are never cached) and counts every
// run (Counts). One Pool can be shared across many concurrent callers —
// the experiment suite runs every simulation it makes through one.
type Pool = sim.Pool

// NewPool returns a Pool executing at most workers simulations at once
// (workers ≤ 0 selects GOMAXPROCS).
func NewPool(workers int) *Pool { return sim.NewPool(workers) }

// BackgroundWithIntensity returns the default background workload at
// intensity v in [0, 1], with the preempt cost scaled linearly so the
// V sweep is continuous through 0: intensity 1 is the paper's loaded
// host and intensity 0 the idle host used for upper-bound curves.
func BackgroundWithIntensity(v float64) NonProtocol { return workload.WithIntensity(v) }

// Calibrate reruns the controlled-cache-state measurements on the cache
// simulator for the given platform, returning raw and normalized packet
// times (see internal/calib).
func Calibrate(p Platform) CalibrationResult {
	return calib.Measure(p, cachesim.DefaultTiming())
}

// CalibrationResult carries raw and normalized calibration output.
type CalibrationResult = calib.Result

// Observability types (internal/obs): set Params.Recorder to receive
// the run's structured event stream. Recorders observe only — results
// are bit-identical with or without one attached.
type (
	// Recorder receives simulation events; implementations must not
	// block (they run inline with the event loop).
	Recorder = obs.Recorder
	// ObsEvent is one structured simulation event.
	ObsEvent = obs.Event
	// ObsKind names an event kind.
	ObsKind = obs.Kind
	// ChromeTrace streams events as Chrome trace-event JSON for
	// chrome://tracing or https://ui.perfetto.dev.
	ChromeTrace = obs.ChromeTrace
	// CSVRecorder streams events as a CSV time series.
	CSVRecorder = obs.CSV
	// MetricsRecorder aggregates events into counters and timers
	// in memory.
	MetricsRecorder = obs.Metrics
	// ObsSnapshot is a point-in-time copy of a MetricsRecorder.
	ObsSnapshot = obs.Snapshot
)

// NewChromeTrace returns a recorder streaming Chrome trace-event JSON
// to w; call Close after the run to finish the JSON array.
func NewChromeTrace(w io.Writer) *ChromeTrace { return obs.NewChromeTrace(w) }

// NewCSVRecorder returns a recorder streaming events as CSV rows to w;
// call Close after the run to flush.
func NewCSVRecorder(w io.Writer) *CSVRecorder { return obs.NewCSV(w) }

// NewMetricsRecorder returns an in-memory aggregating recorder; its
// snapshot is also merged into Results.Obs after the run.
func NewMetricsRecorder() *MetricsRecorder { return obs.NewMetrics() }

// MultiRecorder fans events out to several recorders (nils are
// skipped; returns nil when none remain).
func MultiRecorder(recs ...Recorder) Recorder { return obs.Multi(recs...) }

// Decision-ledger types (internal/obs): set Params.DecisionRecorder to
// receive every scheduling decision — the chosen processor plus the
// candidate set considered, each with its warm/cold prediction and
// predicted execution cost. Like Recorder, the ledger observes only.
type (
	// DecisionRecorder receives scheduling decisions.
	DecisionRecorder = obs.DecisionRecorder
	// Decision is one recorded scheduling decision. Its candidate
	// slice aliases emitter scratch and is valid only during
	// RecordDecision; sinks that retain it must copy.
	Decision = obs.Decision
	// DecisionCandidate is one processor weighed in a decision.
	DecisionCandidate = obs.Candidate
	// DecisionPoint names where in the dispatch path a decision fell
	// (placement, dispatch, or Hybrid spill).
	DecisionPoint = obs.DecisionPoint
	// DecisionCSVRecorder streams decisions as CSV rows.
	DecisionCSVRecorder = obs.DecisionCSV
	// DecisionJSONLRecorder streams decisions as JSON lines.
	DecisionJSONLRecorder = obs.DecisionJSONL
	// TimeSeriesRecorder aggregates the event stream into fixed-Δt
	// interval samples (utilization, queue depth, warm fraction,
	// drops, reordering) written as CSV.
	TimeSeriesRecorder = obs.TimeSeries
)

// NewDecisionCSVRecorder returns a decision sink streaming CSV rows to
// w; call Close after the run to flush.
func NewDecisionCSVRecorder(w io.Writer) *DecisionCSVRecorder { return obs.NewDecisionCSV(w) }

// NewDecisionJSONLRecorder returns a decision sink streaming one JSON
// object per line to w; call Close after the run to flush.
func NewDecisionJSONLRecorder(w io.Writer) *DecisionJSONLRecorder { return obs.NewDecisionJSONL(w) }

// NewTimeSeriesRecorder returns a recorder aggregating events into
// fixed-interval CSV samples on w (intervalUs ≤ 0 selects 1000 µs);
// call Close after the run to flush the final partial interval.
func NewTimeSeriesRecorder(w io.Writer, intervalUs float64, procs int) *TimeSeriesRecorder {
	return obs.NewTimeSeries(w, intervalUs, procs)
}

// WritePrometheus renders a metrics snapshot in Prometheus text
// exposition format; WriteMetricsJSON renders it as indented JSON.
func WritePrometheus(w io.Writer, s ObsSnapshot) error { return obs.WritePrometheus(w, s) }

// WriteMetricsJSON writes a metrics snapshot as indented JSON.
func WriteMetricsJSON(w io.Writer, s ObsSnapshot) error { return obs.WriteMetricsJSON(w, s) }

// Ledger analysis types: the offline regret report over a recorded
// decision ledger (see examples/schedtrace).
type (
	// LedgerReport summarizes a decision ledger: counts by decision
	// point, regret statistics and histogram, and per-stream movement.
	LedgerReport = obs.LedgerReport
	// StreamDecisions is one stream's row in a LedgerReport.
	StreamDecisions = obs.StreamDecisions
)

// ReadDecisionCSV parses a decision ledger written by a
// DecisionCSVRecorder back into decisions.
func ReadDecisionCSV(r io.Reader) ([]Decision, error) { return obs.ReadDecisionCSV(r) }

// AnalyzeLedger builds the regret report over a decision ledger.
func AnalyzeLedger(ds []Decision) LedgerReport { return obs.AnalyzeLedger(ds) }

// Policy-search and counterfactual-replay types
// (internal/policysearch): record a run's full decision ledger, replay
// it with individual decisions substituted (everything else bit-
// identical up to the divergence point), and search the AffinitySteal
// parameter space for the fittest configuration on a workload.
type (
	// SearchSpace is the AffinitySteal grid a search sweeps.
	SearchSpace = policysearch.Space
	// SearchWeights scores a run: mean delay plus clamped tail,
	// unfairness and goodput-shortfall guardrails.
	SearchWeights = policysearch.Weights
	// SearchReport is a completed search: the winner, the full grid,
	// and how many configurations were evaluated.
	SearchReport = policysearch.Report
	// SearchCandidate is one evaluated configuration.
	SearchCandidate = policysearch.Candidate
	// Counterfactual is one substituted replay: the decision, its
	// one-step predicted gain (regret) and the realized ground-truth
	// gain from full re-simulation.
	Counterfactual = policysearch.Counterfactual
	// LedgerRecorder is an unbounded in-memory decision ledger — the
	// recording half of counterfactual replay.
	LedgerRecorder = obs.LedgerRecorder
)

// FactualRun executes p on the DES backend, through pool, while
// recording its complete decision ledger. An existing
// Params.DecisionRecorder still sees every decision (the ledger tees).
func FactualRun(pool *Pool, p Params) (Results, *LedgerRecorder) {
	return policysearch.FactualOn(pool, p)
}

// TopCounterfactuals substitutes the cheapest alternative into each of
// the k highest-regret decisions, one at a time, and re-simulates the k
// replays together through pool, returning predicted vs realized gains
// in descending predicted order.
func TopCounterfactuals(pool *Pool, p Params, factual Results, ledger *LedgerRecorder, k int) []Counterfactual {
	return policysearch.TopKOn(pool, p, factual, ledger, k)
}

// SearchStealPolicies grid-searches the AffinitySteal space on base's
// workload through the memoizing pool, then refines the winner by
// coordinate descent. Deterministic for fixed inputs at any pool width.
func SearchStealPolicies(pool *Pool, base Params, space SearchSpace, w SearchWeights) SearchReport {
	return policysearch.Search(pool, base, space, w)
}

// DefaultSearchSpace returns the standard grid, which contains the
// three reduction corners (FCFS, MRU, WiredStreams).
func DefaultSearchSpace() SearchSpace { return policysearch.DefaultSpace() }

// DefaultSearchWeights returns mean-delay-dominated weights with tail,
// fairness and goodput guardrails.
func DefaultSearchWeights() SearchWeights { return policysearch.DefaultWeights() }

// Experiment types: the per-table/per-figure reproduction suite.
type (
	// Experiment reproduces one paper table or figure.
	Experiment = exp.Experiment
	// ExperimentConfig controls experiment execution.
	ExperimentConfig = exp.Config
	// ResultTable is an experiment's rendered output.
	ResultTable = exp.Table
)

// ExperimentByID looks up one experiment (e.g. "E5", "T2").
func ExperimentByID(id string) (Experiment, bool) { return exp.ByID(id) }
