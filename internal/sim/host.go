package sim

import (
	"math"
	"math/bits"
	"strconv"

	"affinity/internal/core"
	"affinity/internal/des"
	"affinity/internal/faults"
	"affinity/internal/fifo"
	"affinity/internal/obs"
	"affinity/internal/sched"
	"affinity/internal/stats"
	"affinity/internal/topo"
	"affinity/internal/traffic"
)

// Host is the paper's simulated host (§3) as one backend-neutral state
// machine: per-processor displacement state, the dispatcher and its
// queues, cost-model charging, the conservation ledger, statistics and
// observability emission. The affinity policy is the only thing that
// varies between runs, and time is the only thing that varies between
// backends: a Host reaches its backend through a Clock. The DES
// (runner.go) implements the Clock with its event heap; the live
// backend (internal/live) with goroutine workers on a virtual clock.
// Both backends therefore run this code, and a dispatch policy is added
// in one place.
//
// A Host is not safe for concurrent use; the live backend drives it
// under its dispatch mutex. The packet lifecycle is allocation-free in
// steady state: displacement marks are flat slices indexed by entity,
// every queue reuses its blocks (internal/fifo), and each processor's
// Job is built in place in jobs and handed to the backend by pointer.
// TestRunnerSteadyStateZeroAllocs pins this on the DES with recorders
// disabled.
type Host struct {
	p    Params
	clk  Clock
	exec *core.Exec // compiled model: bit-identical, transcendentals hoisted
	rate float64    // displacing references per µs of full-speed execution

	// now is the instant of the entry-point call in progress (Arrive,
	// Complete, Fault), passed in by the backend, which already knows it.
	// Time cannot advance inside one host call — a DES handler runs at
	// one instant, and the live clock waits while the caller is runnable
	// — so internal methods read it here instead of asking the clock.
	now des.Time

	// topo is Params.Topology, but only when it can change a charge:
	// nil for the flat machine (no topology, or one whose transient
	// multipliers are all 1), so the topology-free path stays a single
	// nil compare and is bit-identical to the pre-topology runner.
	topo *topo.Topology

	disp  sched.PacketDispatcher // Locking
	sdisp sched.StackDispatcher  // IPS / Hybrid
	place sched.Placement        // whichever of the two the paradigm uses

	procs       []procState
	jobs        []Job // jobs[p]: processor p's current service interval
	stacks      []stackState
	overflow    fifo.Queue[sched.Packet] // Hybrid: packets spilled to the shared path
	rng         *des.RNG                 // Hybrid overflow placement
	lastProcOf  []int                    // entity → processor of previous completion, -1 unknown
	idleScratch []int                    // reused by idleProcs

	// idle has bit p%64 of word p/64 set while processor p is neither
	// busy nor down. beginService, goIdle, procDown and procUp keep it
	// in step with procState, so idleProcs reads the set bits instead
	// of scanning every processor. Up to 64 processors it is idleWord,
	// so the mask costs a run no allocation.
	idle     []uint64
	idleWord [1]uint64

	delays    *stats.BatchMeans
	delayHist *stats.Histogram
	// Results reads only a mean and a count from each of these, and
	// the largest measured delay from maxDelay.
	delayMean stats.Mean
	maxDelay  float64
	perStream []stats.Mean
	service   stats.Mean
	queueing  stats.Mean
	lockWait  stats.Mean

	warm       uint64
	coldStarts uint64
	migrations uint64
	spills     uint64
	measured   int
	arrivals   uint64

	// Fault injection: the active loss probability and its RNG stream
	// (created only when the plan has loss events, so every other
	// stream's published draws stay identical to a fault-free run's).
	lossProb float64
	lossRNG  *des.RNG
	dropped  uint64

	// rec is Params.Recorder. Every emission site is guarded by
	// `h.rec != nil`, which keeps the disabled path free of event
	// construction (the zero-overhead contract). emitted counts events
	// published through it.
	rec     obs.Recorder
	emitted uint64

	// Decision-ledger state: drec is Params.DecisionRecorder (every
	// decide call site is guarded by `h.drec != nil`), decisions counts
	// what was published, candScratch is the reused candidate buffer
	// (each Decision aliases it for the duration of RecordDecision) and
	// oneProc the reused single-candidate set for dispatch decisions.
	drec        obs.DecisionRecorder
	decisions   uint64
	candScratch []obs.Candidate
	oneProc     [1]int

	// Counterfactual replay state: over is Params.DecisionOverride
	// (call sites guard with `h.drec != nil || h.over != nil` so normal
	// runs pay the same single branch as before), overIdx the ordinal of
	// the next decision — counted at every decision site, recorder or
	// not, so it matches the ledger indices a recorder would assign.
	over    DecisionOverride
	overIdx uint64

	// Per-stream reordering state: streamSeq numbers each stream's
	// arrivals (1-based), streamMaxDone is the highest StreamSeq
	// completed, streamReordered the out-of-order completion count —
	// sparse, created at the first reordered completion, so the common
	// in-order run carries no per-stream reorder storage at all. The
	// counters always run — they are a few integer ops per packet — so
	// Results carries the metric with or without recorders.
	streamSeq       []uint64
	streamMaxDone   []uint64
	streamReordered map[int]uint64
	reordered       uint64
	maxReorderDist  uint64
}

// Clock is what a Host needs from its execution backend.
type Clock interface {
	// Now returns the current simulated time.
	Now() des.Time
	// Stop ends the run: the measurement target has been met.
	Stop()
	// Pending returns the number of scheduled future events (the DES
	// heap depth, or the live clock's sleepers) for the heap gauge.
	Pending() int
	// Fired returns the number of events executed so far.
	Fired() uint64
	// Serve plays out one service interval (see Job) and then calls
	// Host.Complete with the instant the interval ends. The job is the
	// host's slot for j.Proc: it stays put and unchanged until that
	// Complete, which may rebuild it for the processor's next job.
	Serve(j *Job)
}

// Job is one packet's service interval, bound when a processor starts
// the packet. The backend plays it out on Proc: Pre elapses first; a
// Locked job then queues FIFO for the shared-stack lock, reports its
// wait through Host.LockWaited, holds the lock for Crit and releases
// it. The backend then hands the job back to Host.Complete.
type Job struct {
	Proc   int
	Locked bool
	Pre    des.Time // until completion, or until the lock request if Locked
	Crit   des.Time // critical section under the shared-stack lock

	pkt     sched.Packet
	exec    float64 // charged execution time (model + data touch)
	warmHit bool
	done    completionKind
}

// completionKind selects the continuation Complete runs — an enum
// carried in the Job rather than a captured function value, so
// beginService stays allocation-free.
type completionKind uint8

const (
	compLocking completionKind = iota
	compOverflow
	compIPS
)

// procState tracks one processor's displacement counters and occupancy.
//
// dispNP accumulates displacing references issued by the non-protocol
// workload (idle periods, scaled by intensity V); dispProto accumulates
// references issued by protocol execution. Each footprint entity marks
// both counters when it completes on the processor; the displacement it
// has suffered since is the counters' growth, with other-protocol growth
// discounted by the shared-code fraction.
type procState struct {
	busy      bool
	idleSince des.Time
	busySince des.Time
	dispNP    float64
	dispProto float64
	seen      []bool    // entity has completed on this processor
	markNP    []float64 // entity → dispNP at last completion here
	markProto []float64 // entity → dispProto at last completion here
	util      stats.TimeWeighted

	// Fault-injection state: a down processor takes no new work (its
	// in-flight packet drains gracefully, then it parks); slow scales
	// charged execution time while a transient slow-down is active
	// (1 = full speed, the only value touched on fault-free runs).
	down      bool
	downSince des.Time
	downTime  float64 // closed down intervals, µs
	slow      float64
}

// stackState tracks one IPS stack.
type stackState struct {
	q       fifo.Queue[sched.Packet]
	running bool
	queued  bool
}

// NewHost builds the host core for p, which must already have been
// through WithDefaults and Validate, on the backend clk. This is the
// one place dispatchers are constructed.
func NewHost(p Params, clk Clock) *Host {
	entities := p.entityCount()
	h := &Host{
		p:          p,
		clk:        clk,
		exec:       p.Model.Compile(),
		rate:       p.Model.Platform.RefsPerMicrosecond(),
		procs:      make([]procState, p.Processors),
		jobs:       make([]Job, p.Processors),
		lastProcOf: make([]int, entities),
		delays:     stats.NewBatchMeans(uint64(max(p.MeasuredPackets/30, 1))),
		delayHist:  stats.NewHistogram(0, 100_000, 10_000), // 10 µs bins to 100 ms
		perStream:  make([]stats.Mean, p.Streams),

		rec:           p.Recorder,
		drec:          p.DecisionRecorder,
		over:          p.DecisionOverride,
		streamSeq:     make([]uint64, p.Streams),
		streamMaxDone: make([]uint64, p.Streams),
	}
	if t := p.Topology; t != nil &&
		(t.SameSocketTransient != 1 || t.CrossSocketTransient != 1) {
		h.topo = t
	}
	if h.drec != nil {
		h.candScratch = make([]obs.Candidate, 0, p.Processors)
	}
	for i := range h.lastProcOf {
		h.lastProcOf[i] = -1
	}
	h.idle = h.idleWord[:]
	if p.Processors > 64 {
		h.idle = make([]uint64, (p.Processors+63)/64)
	}
	for i := range h.procs {
		h.setIdle(i, true)
		h.procs[i].seen = make([]bool, entities)
		h.procs[i].markNP = make([]float64, entities)
		h.procs[i].markProto = make([]float64, entities)
		h.procs[i].util.Set(0, 0)
		h.procs[i].slow = 1
	}
	if p.Faults.HasLoss() {
		h.lossRNG = des.Stream(p.Seed, "fault-loss")
	}
	h.idleScratch = make([]int, 0, p.Processors)
	schedRNG := des.Stream(p.Seed, "sched")
	if p.Paradigm == Locking {
		h.disp = sched.NewPacketDispatcherFull(p.Policy, p.Processors, schedRNG, p.MRULookahead,
			sched.HashConfig{Rebalance: p.FDRebalance, Identity: p.hashIdentity},
			sched.StealConfig{StealParams: p.Steal, Now: clk.Now})
		h.place = h.disp
	} else {
		h.sdisp = sched.NewStackDispatcherLookahead(p.Policy, p.Stacks, p.Processors, schedRNG, p.MRULookahead)
		h.place = h.sdisp
		h.stacks = make([]stackState, p.Stacks)
		if p.Paradigm == Hybrid {
			h.rng = des.Stream(p.Seed, "hybrid-overflow")
		}
	}
	return h
}

// arrivalsNames caches the per-stream RNG stream names so a run's
// startup (and tests constructing many runners) does not go through
// fmt.Sprintf; entries must stay identical to the historical
// "arrivals-%d" so every seed keeps its published draws.
var arrivalsNames = func() (t [64]string) {
	for i := range t {
		t[i] = "arrivals-" + strconv.Itoa(i)
	}
	return
}()

// arrivalSpec returns stream s's arrival process spec.
func (h *Host) arrivalSpec(s int) traffic.Spec {
	if h.p.ArrivalPerStream != nil {
		return h.p.ArrivalPerStream[s]
	}
	return h.p.Arrival
}

// ArrivalProcess builds stream s's arrival process on its seed-derived
// RNG stream, so every backend draws the same arrival sequence.
func (h *Host) ArrivalProcess(s int) traffic.Process {
	var name string
	if s < len(arrivalsNames) {
		name = arrivalsNames[s]
	} else {
		name = "arrivals-" + strconv.Itoa(s)
	}
	return h.arrivalSpec(s).Build(des.Stream(h.p.Seed, name))
}

// emit publishes one event on the recorder chain; callers guard with
// h.rec != nil so the disabled path constructs nothing.
func (h *Host) emit(e obs.Event) {
	h.emitted++
	h.rec.Record(e)
}

// decide publishes one dispatch decision: the chosen processor plus the
// candidate set considered, each with the warm/cold prediction and the
// execution cost the model would charge there right now. Costs come
// from the same pure functions beginService charges with, so recording
// reads simulator state without touching it. Callers guard with
// h.drec != nil; the emitted Decision aliases candScratch, valid only
// for the duration of RecordDecision.
func (h *Host) decide(point obs.DecisionPoint, pkt sched.Packet, cands []int, chosen int) {
	h.decisions++
	cs := h.candScratch[:0]
	best := math.Inf(1)
	chosenCost := 0.0
	for _, pc := range cands {
		x := h.xRefs(pkt.Entity, pc)
		texec, f1 := h.exec.ExecTimeF1(x)
		if h.topo != nil {
			texec = h.topoScaled(texec, pkt.Entity, pc)
		}
		cost := texec + h.p.DataTouch
		if s := h.procs[pc].slow; s != 1 {
			cost *= s
		}
		cs = append(cs, obs.Candidate{
			Proc: pc, Warm: !math.IsInf(x, 1) && f1 < 0.5, XRefs: x, Cost: cost,
		})
		if cost < best {
			best = cost
		}
		if pc == chosen {
			chosenCost = cost
		}
	}
	h.candScratch = cs
	h.drec.RecordDecision(obs.Decision{
		T: float64(h.now), Point: point, Seq: pkt.Seq,
		Stream: pkt.Stream, Entity: pkt.Entity,
		Chosen: chosen, Preferred: h.place.PreferredProc(pkt.Entity),
		ChosenCost: chosenCost, BestCost: best, Candidates: cs,
	})
}

// chose settles one dispatch decision: the counterfactual override (if
// any) substitutes the choice first, then the ledger records what will
// actually run. The override's ordinal advances at every decision site
// whether or not a recorder is attached, so a replay run (override, no
// recorder) counts decisions exactly as the factual run's ledger
// numbered them. Callers guard with `h.drec != nil || h.over != nil`.
func (h *Host) chose(point obs.DecisionPoint, pkt sched.Packet, cands []int, chosen int) int {
	if h.over != nil {
		forced := h.over(h.overIdx, point, cands, chosen)
		h.overIdx++
		if forced != chosen {
			ok := false
			for _, c := range cands {
				if c == forced {
					ok = true
					break
				}
			}
			if !ok {
				panic("sim: decision override chose a processor outside the candidate set")
			}
			chosen = forced
		}
	}
	if h.drec != nil {
		h.decide(point, pkt, cands, chosen)
	}
	return chosen
}

// choseDispatch settles the single-candidate decision a processor
// pulling queued work makes: the processor is fixed, the choice was
// which work to run, so an override cannot move it — but it still
// consumes an ordinal, keeping replay numbering aligned with the ledger.
func (h *Host) choseDispatch(pkt sched.Packet, proc int) {
	h.oneProc[0] = proc
	h.chose(obs.PointDispatch, pkt, h.oneProc[:], proc)
}

// GaugePeriod is the simulated-time interval between the periodic gauge
// samples (queue depth, event-heap size, displacement counters) that
// both backends publish to an attached Recorder.
const GaugePeriod = des.Millisecond

// SampleGauges publishes the periodic gauges. Backends call it every
// GaugePeriod, and only when a recorder is attached; it reads state
// without mutating it, so it cannot perturb the run.
func (h *Host) SampleGauges() {
	t := float64(h.clk.Now())
	h.emit(obs.Event{T: t, Kind: obs.KindGaugeQueue, Proc: -1, Stream: -1, Entity: -1,
		Val: float64(h.queuedPackets())})
	h.emit(obs.Event{T: t, Kind: obs.KindGaugeHeap, Proc: -1, Stream: -1, Entity: -1,
		Val: float64(h.clk.Pending())})
	var dNP, dProto float64
	for i := range h.procs {
		dNP += h.procs[i].dispNP
		dProto += h.procs[i].dispProto
	}
	h.emit(obs.Event{T: t, Kind: obs.KindGaugeDispNP, Proc: -1, Stream: -1, Entity: -1, Val: dNP})
	h.emit(obs.Event{T: t, Kind: obs.KindGaugeDispProto, Proc: -1, Stream: -1, Entity: -1, Val: dProto})
	if h.p.Paradigm == Hybrid {
		h.emit(obs.Event{T: t, Kind: obs.KindGaugeOverflow, Proc: -1, Stream: -1, Entity: -1,
			Val: float64(h.overflow.Len())})
	}
}

// Fault applies one fault-plan event at instant now.
func (h *Host) Fault(now des.Time, ev faults.Event) {
	h.now = now
	switch ev.Kind {
	case faults.ProcDown:
		h.procDown(ev.Proc)
	case faults.ProcUp:
		h.procUp(ev.Proc)
	case faults.Slowdown:
		h.procs[ev.Proc].slow = ev.Factor
	case faults.Loss:
		h.lossProb = ev.Prob
	case faults.Burst:
		if ev.Stream < 0 {
			for s := 0; s < h.p.Streams; s++ {
				for j := 0; j < ev.Count; j++ {
					h.Arrive(now, s)
				}
			}
			return
		}
		for j := 0; j < ev.Count; j++ {
			h.Arrive(now, ev.Stream)
		}
	}
}

// idleProcs returns the processors currently free of protocol work, in
// ascending order. The returned slice is the host's scratch buffer,
// valid until the next call.
func (h *Host) idleProcs() []int {
	idle := h.idleScratch[:0]
	for w, word := range h.idle {
		for ; word != 0; word &= word - 1 {
			idle = append(idle, w<<6|bits.TrailingZeros64(word))
		}
	}
	h.idleScratch = idle
	return idle
}

// setIdle records whether processor p is free of protocol work (neither
// busy nor down) in the idle mask.
func (h *Host) setIdle(p int, free bool) {
	if free {
		h.idle[p>>6] |= 1 << (p & 63)
	} else {
		h.idle[p>>6] &^= 1 << (p & 63)
	}
}

// Arrive admits one packet of stream at instant now.
func (h *Host) Arrive(now des.Time, stream int) {
	h.now = now
	h.arrivals++
	h.streamSeq[stream]++
	pkt := sched.Packet{Stream: stream, Entity: h.p.entityOf(stream), Arrive: now,
		Seq: h.arrivals, StreamSeq: h.streamSeq[stream]}
	if h.rec != nil {
		h.emit(obs.Event{T: float64(now), Kind: obs.KindArrival,
			Proc: -1, Stream: pkt.Stream, Entity: pkt.Entity, Seq: pkt.Seq})
	}
	if h.lossProb > 0 && h.lossRNG.Float64() < h.lossProb {
		h.drop(pkt, obs.DropReasonLoss)
		return
	}
	if h.p.Paradigm == Locking {
		if idle := h.idleProcs(); len(idle) > 0 {
			if proc := h.disp.PickProcessor(pkt, idle); proc >= 0 {
				if h.drec != nil || h.over != nil {
					proc = h.chose(obs.PointPlace, pkt, idle, proc)
				}
				h.beginService(pkt, proc, true, true, compLocking)
				return
			}
		}
		if h.p.MaxQueueDepth > 0 && h.disp.DepthFor(pkt) >= h.p.MaxQueueDepth {
			h.drop(pkt, obs.DropReasonQueue)
			return
		}
		h.enqueued(pkt)
		h.disp.Enqueue(pkt)
		return
	}
	// IPS / Hybrid: the packet joins its stack's queue; a newly ready
	// stack is placed on a processor or queued.
	k := pkt.Entity
	st := &h.stacks[k]
	if h.p.Paradigm == Hybrid && (st.running || st.queued) && st.q.Len() >= h.p.HybridOverflow {
		// The stack is backed up: spill to the shared locking path,
		// which any idle processor may serve concurrently.
		if idle := h.idleProcs(); len(idle) > 0 {
			h.spills++
			proc := idle[h.rng.Intn(len(idle))]
			if h.drec != nil || h.over != nil {
				proc = h.chose(obs.PointSpill, pkt, idle, proc)
			}
			if h.rec != nil {
				h.emit(obs.Event{T: float64(now), Kind: obs.KindSpill,
					Proc: proc, Stream: pkt.Stream, Entity: pkt.Entity, Seq: pkt.Seq})
			}
			h.beginService(pkt, proc, true, true, compOverflow)
			return
		}
		if h.p.MaxQueueDepth > 0 && h.overflow.Len() >= h.p.MaxQueueDepth {
			h.drop(pkt, obs.DropReasonQueue)
			return
		}
		h.spills++
		if h.rec != nil {
			h.emit(obs.Event{T: float64(now), Kind: obs.KindSpill,
				Proc: -1, Stream: pkt.Stream, Entity: pkt.Entity, Seq: pkt.Seq})
		}
		h.enqueued(pkt)
		h.overflow.Push(pkt)
		return
	}
	if h.p.MaxQueueDepth > 0 {
		waiting := st.q.Len()
		if st.running {
			waiting-- // the head is in service, not waiting
		}
		if waiting >= h.p.MaxQueueDepth {
			h.drop(pkt, obs.DropReasonQueue)
			return
		}
	}
	st.q.Push(pkt)
	if st.running || st.queued {
		h.enqueued(pkt)
		return
	}
	if idle := h.idleProcs(); len(idle) > 0 {
		if proc := h.sdisp.PickProcessor(k, idle); proc >= 0 {
			if h.drec != nil || h.over != nil {
				// The stack was idle and unqueued, so the arriving packet
				// is the one this placement runs.
				proc = h.chose(obs.PointPlace, pkt, idle, proc)
			}
			h.startStack(k, proc, true)
			return
		}
	}
	h.enqueued(pkt)
	st.queued = true
	h.sdisp.EnqueueStack(k)
}

// enqueued publishes the packet's enqueue event — it could not be
// served immediately and now waits in some queue.
func (h *Host) enqueued(pkt sched.Packet) {
	if h.rec != nil {
		h.emit(obs.Event{T: float64(h.now), Kind: obs.KindEnqueue,
			Proc: -1, Stream: pkt.Stream, Entity: pkt.Entity, Seq: pkt.Seq})
	}
}

// drop removes an arrived packet from the system unserved. Dropped
// packets stay in the conservation ledger: Arrivals = CompletedTotal +
// InFlightAtEnd + QueueAtEnd + Dropped.
func (h *Host) drop(pkt sched.Packet, reason int) {
	h.dropped++
	if h.rec != nil {
		h.emit(obs.Event{T: float64(h.now), Kind: obs.KindDrop,
			Proc: -1, Stream: pkt.Stream, Entity: pkt.Entity, Seq: pkt.Seq,
			Val: float64(reason)})
	}
}

// procDown takes a processor out of service: the dispatcher re-homes
// entities bound to it, its in-flight packet (if any) drains and then
// the processor parks until procUp.
func (h *Host) procDown(proc int) {
	ps := &h.procs[proc]
	if ps.down {
		return
	}
	now := h.now
	ps.down = true
	ps.downSince = now
	h.setIdle(proc, false)
	if h.rec != nil {
		h.emit(obs.Event{T: float64(now), Kind: obs.KindProcDown,
			Proc: proc, Stream: -1, Entity: -1})
	}
	h.place.ProcDown(proc)
	// Re-homed work may be runnable on other processors right now.
	h.kickIdle()
}

// procUp returns a processor to service with a cold cache: whatever
// protocol state it held is gone, so every entity restarts cold here —
// the failback penalty the wired policies' re-homing must amortize.
func (h *Host) procUp(proc int) {
	ps := &h.procs[proc]
	if !ps.down {
		return
	}
	now := h.now
	ps.down = false
	ps.downTime += float64(now - ps.downSince)
	h.setIdle(proc, !ps.busy)
	for i := range ps.seen {
		ps.seen[i] = false
	}
	if h.rec != nil {
		h.emit(obs.Event{T: float64(now), Kind: obs.KindProcUp,
			Proc: proc, Stream: -1, Entity: -1, Dur: float64(now - ps.downSince)})
	}
	h.place.ProcUp(proc)
	h.kickIdle()
}

// kickIdle offers queued work to every live idle processor. The normal
// arrival/completion flow cannot see work that a fault transition moved
// between queues (or a parked processor left behind), so every
// transition ends with a kick — this is what guarantees no stream
// strands while at least one processor is up.
func (h *Host) kickIdle() {
	for proc := range h.procs {
		ps := &h.procs[proc]
		if ps.busy || ps.down {
			continue
		}
		if h.p.Paradigm == Locking {
			if next, ok := h.disp.Dispatch(proc); ok {
				if h.drec != nil || h.over != nil {
					h.choseDispatch(next, proc)
				}
				h.beginService(next, proc, true, true, compLocking)
			}
			continue
		}
		if next := h.sdisp.DispatchStack(proc); next >= 0 {
			h.stacks[next].queued = false
			if h.drec != nil || h.over != nil {
				h.choseDispatch(h.stacks[next].q.Front(), proc)
			}
			h.startStack(next, proc, true)
			continue
		}
		if h.p.Paradigm == Hybrid && h.overflow.Len() > 0 {
			pkt, _ := h.overflow.Pop()
			if h.drec != nil || h.over != nil {
				h.choseDispatch(pkt, proc)
			}
			h.beginService(pkt, proc, true, true, compOverflow)
		}
	}
}

// topoScaled applies the topology's migration transient multiplier to a
// model-charged execution time: a packet whose entity last completed on
// a different core pays t_warm + scale·(T(x) − t_warm), where scale
// depends on whether the migration crosses a socket. The warm floor
// never scales — it is a property of the code path, not of where the
// stale state lives — and an entity's very first run anywhere has no
// state to fetch, so it pays the plain cold charge. Callers guard with
// h.topo != nil (nil whenever no multiplier differs from 1), keeping
// the flat machine bit-identical to the topology-free runner.
func (h *Host) topoScaled(texec float64, entity, proc int) float64 {
	if last := h.lastProcOf[entity]; last >= 0 && last != proc {
		if s := h.topo.TransientScale(last, proc); s != 1 {
			w := h.exec.Warm()
			texec = w + s*(texec-w)
		}
	}
	return texec
}

// xRefs returns the displacing references entity e has suffered on proc
// since it last completed there, or +Inf if it never ran there.
func (h *Host) xRefs(e, proc int) float64 {
	ps := &h.procs[proc]
	if !ps.seen[e] {
		return math.Inf(1)
	}
	dNP := ps.dispNP - ps.markNP[e]
	dProto := ps.dispProto - ps.markProto[e]
	return dNP + (1-h.p.CodeSharedFrac)*dProto
}

// beginService runs pkt on proc. fromIdle marks a processor that was
// running the background workload (its idle displacement is settled and
// the preemption cost applies). locked selects the shared-stack path,
// which pays the lock overhead and serializes its critical section; done
// selects the completion continuation. The charged interval is built in
// proc's Job slot and goes to the backend by pointer.
func (h *Host) beginService(pkt sched.Packet, proc int, fromIdle, locked bool, done completionKind) {
	now := h.now
	ps := &h.procs[proc]
	if ps.busy && fromIdle {
		panic("sim: placed packet on busy processor")
	}
	if ps.down {
		panic("sim: placed packet on down processor")
	}
	preempt := 0.0
	if fromIdle {
		// Settle the idle period's background displacement.
		ps.dispNP += h.p.Background.Intensity * h.rate * float64(now-ps.idleSince)
		ps.busy = true
		ps.busySince = now
		h.setIdle(proc, false)
		ps.util.Set(float64(now), 1)
		if h.rec != nil {
			h.emit(obs.Event{T: float64(now), Kind: obs.KindProcBusy,
				Proc: proc, Stream: -1, Entity: -1, Dur: float64(now - ps.idleSince)})
		}
		if h.p.Background.Intensity > 0 {
			preempt = h.p.Background.PreemptCost
		}
	}

	x := h.xRefs(pkt.Entity, proc)
	texec, f1 := h.exec.ExecTimeF1(x)
	if h.topo != nil {
		texec = h.topoScaled(texec, pkt.Entity, proc)
	}
	exec := texec + h.p.DataTouch
	if ps.slow != 1 {
		// Transient slow-down fault: scale the charged execution. Guarded
		// so fault-free runs multiply nothing and stay bit-identical.
		exec *= ps.slow
	}
	cold := math.IsInf(x, 1)
	if cold {
		h.coldStarts++
	}
	// Warm hits are counted at completion (Complete), alongside the
	// service accumulator that forms WarmFraction's denominator, so
	// packets still in flight when the run stops never enter the ratio.
	warmHit := !cold && f1 < 0.5
	migrated := false
	if last := h.lastProcOf[pkt.Entity]; last >= 0 && last != proc {
		h.migrations++
		migrated = true
	}
	h.queueing.Add(float64(now - pkt.Arrive))
	if h.rec != nil {
		t := float64(now)
		h.emit(obs.Event{T: t, Kind: obs.KindDispatch, Proc: proc,
			Stream: pkt.Stream, Entity: pkt.Entity, Seq: pkt.Seq,
			Dur: float64(now - pkt.Arrive)})
		var flags obs.Flags
		if cold {
			flags |= obs.FlagCold
		}
		if migrated {
			flags |= obs.FlagMigrated
		}
		if locked {
			flags |= obs.FlagLocked
		}
		if warmHit {
			flags |= obs.FlagWarm
		}
		h.emit(obs.Event{T: t, Kind: obs.KindExecStart, Proc: proc,
			Stream: pkt.Stream, Entity: pkt.Entity, Seq: pkt.Seq,
			Dur: exec, Val: x, Flags: flags})
		if cold {
			h.emit(obs.Event{T: t, Kind: obs.KindColdStart, Proc: proc,
				Stream: pkt.Stream, Entity: pkt.Entity, Seq: pkt.Seq})
		}
		if migrated {
			h.emit(obs.Event{T: t, Kind: obs.KindMigration, Proc: proc,
				Stream: pkt.Stream, Entity: pkt.Entity, Seq: pkt.Seq})
		}
	}

	j := &h.jobs[proc]
	j.Proc, j.Locked, j.pkt, j.exec, j.warmHit, j.done = proc, locked, pkt, exec, warmHit, done
	if locked {
		j.Pre = des.Time(preempt + h.p.LockOverhead + (1-h.p.LockCritFrac)*exec)
		j.Crit = des.Time(h.p.LockCritFrac * exec)
	} else {
		j.Pre, j.Crit = des.Time(preempt+exec), 0
	}
	h.clk.Serve(j)
}

// Job returns processor proc's job slot, the one Serve hands over for
// proc. The pointer is fixed for the Host's life.
func (h *Host) Job(proc int) *Job { return &h.jobs[proc] }

// LockWaited records how long a Locked job queued for the shared-stack
// lock; the backend calls it at the instant the lock is granted.
func (h *Host) LockWaited(d des.Time) { h.lockWait.Add(float64(d)) }

// Complete settles a Job that finished at instant now — the warm-hit
// counter, displacement marks, affinity state and delay statistics —
// and runs the paradigm's continuation, which picks the processor's
// next work. The protocol execution that displaces other footprints
// includes the lock overhead but not the spin wait. j is the slot Serve
// was handed; the continuation may rebuild it for the next job, so
// Complete reads it only before the continuation starts.
func (h *Host) Complete(now des.Time, j *Job) {
	h.now = now
	if j.warmHit {
		h.warm++
	}
	protoExec := j.exec
	if j.Locked {
		protoExec += h.p.LockOverhead
	}
	switch j.done {
	case compLocking:
		h.completeLocking(j.pkt, j.Proc, protoExec)
	case compOverflow:
		h.completeOverflow(j.pkt, j.Proc, protoExec)
	default:
		h.completeIPS(j.pkt, j.Proc, protoExec)
	}
}

// settleCompletion updates displacement marks, affinity state and delay
// statistics common to both paradigms. protoExec is the protocol
// execution time that displaces other footprints (spin wait excluded).
func (h *Host) settleCompletion(pkt sched.Packet, proc int, protoExec float64) {
	now := h.now
	ps := &h.procs[proc]
	ps.dispProto += h.rate * protoExec
	ps.seen[pkt.Entity] = true
	ps.markNP[pkt.Entity] = ps.dispNP
	ps.markProto[pkt.Entity] = ps.dispProto
	h.lastProcOf[pkt.Entity] = proc
	if !ps.down {
		// A completion draining off a failed processor must not refresh
		// affinity: its cache is lost at recovery, and ThreadPools would
		// otherwise migrate the stream's home onto the dead processor.
		h.place.RanOn(pkt.Entity, proc)
	}
	h.service.Add(protoExec)
	if h.rec != nil {
		h.emit(obs.Event{T: float64(now), Kind: obs.KindExecEnd, Proc: proc,
			Stream: pkt.Stream, Entity: pkt.Entity, Seq: pkt.Seq, Dur: protoExec})
	}

	// Reordering: a completion below its stream's watermark finished
	// after a later arrival of the same stream already did. Distance is
	// measured in the stream's own arrival numbering.
	if pkt.StreamSeq > h.streamMaxDone[pkt.Stream] {
		h.streamMaxDone[pkt.Stream] = pkt.StreamSeq
	} else {
		h.reordered++
		if h.streamReordered == nil {
			h.streamReordered = make(map[int]uint64)
		}
		h.streamReordered[pkt.Stream]++
		if d := h.streamMaxDone[pkt.Stream] - pkt.StreamSeq; d > h.maxReorderDist {
			h.maxReorderDist = d
		}
	}

	if pkt.Arrive >= h.p.Warmup {
		delay := float64(now - pkt.Arrive)
		h.delays.Add(delay)
		h.delayMean.Add(delay)
		if delay > h.maxDelay {
			h.maxDelay = delay
		}
		h.delayHist.Add(delay)
		h.perStream[pkt.Stream].Add(delay)
		h.measured++
		if h.measured >= h.p.MeasuredPackets {
			h.clk.Stop()
		}
	}
}

// goIdle marks a processor idle and lets the background workload resume.
func (h *Host) goIdle(proc int) {
	now := h.now
	ps := &h.procs[proc]
	ps.busy = false
	ps.idleSince = now
	h.setIdle(proc, !ps.down)
	ps.util.Set(float64(now), 0)
	if h.rec != nil {
		h.emit(obs.Event{T: float64(now), Kind: obs.KindProcIdle,
			Proc: proc, Stream: -1, Entity: -1, Dur: float64(now - ps.busySince)})
	}
}

func (h *Host) completeLocking(pkt sched.Packet, proc int, protoExec float64) {
	h.settleCompletion(pkt, proc, protoExec)
	if h.procs[proc].down {
		// The drain is complete: park, and let live processors pick up
		// anything that queued behind this one.
		h.goIdle(proc)
		h.kickIdle()
		return
	}
	if next, ok := h.disp.Dispatch(proc); ok {
		if h.drec != nil || h.over != nil {
			h.choseDispatch(next, proc)
		}
		h.beginService(next, proc, false, true, compLocking)
		return
	}
	h.goIdle(proc)
}

// completeOverflow finishes a Hybrid spilled packet and picks the
// processor's next work: a ready stack first (affinity), then another
// spilled packet.
func (h *Host) completeOverflow(pkt sched.Packet, proc int, protoExec float64) {
	h.settleCompletion(pkt, proc, protoExec)
	if h.procs[proc].down {
		h.goIdle(proc)
		h.kickIdle()
		return
	}
	h.dispatchHybrid(proc)
}

// dispatchHybrid finds the next work item for an idle-going processor
// under the Hybrid paradigm.
func (h *Host) dispatchHybrid(proc int) {
	if next := h.sdisp.DispatchStack(proc); next >= 0 {
		h.stacks[next].queued = false
		if h.drec != nil || h.over != nil {
			h.choseDispatch(h.stacks[next].q.Front(), proc)
		}
		h.startStack(next, proc, false)
		return
	}
	if h.overflow.Len() > 0 {
		pkt, _ := h.overflow.Pop()
		if h.drec != nil || h.over != nil {
			h.choseDispatch(pkt, proc)
		}
		h.beginService(pkt, proc, false, true, compOverflow)
		return
	}
	h.goIdle(proc)
}

func (h *Host) completeIPS(pkt sched.Packet, proc int, protoExec float64) {
	h.settleCompletion(pkt, proc, protoExec)
	k := pkt.Entity
	st := &h.stacks[k]
	st.q.Pop()
	if h.procs[proc].down {
		// The drain is complete: the stack rejoins the ready queue (its
		// new wire after re-homing) if it still has work, and the
		// processor parks.
		st.running = false
		if st.q.Len() > 0 {
			st.queued = true
			h.sdisp.EnqueueStack(k)
		}
		h.goIdle(proc)
		h.kickIdle()
		return
	}
	if st.q.Len() > 0 {
		// The stack still has work, but packet-level fairness applies:
		// if another ready stack is waiting for this processor, yield
		// to it and rejoin the ready queue; otherwise keep running.
		if next := h.sdisp.DispatchStack(proc); next >= 0 {
			st.running = false
			st.queued = true
			h.sdisp.EnqueueStack(k)
			h.stacks[next].queued = false
			if h.drec != nil || h.over != nil {
				h.choseDispatch(h.stacks[next].q.Front(), proc)
			}
			h.startStack(next, proc, false)
			return
		}
		// Continuing the same stack on the same processor is not a
		// decision: there was no alternative to weigh.
		h.beginService(st.q.Front(), proc, false, false, compIPS)
		return
	}
	st.running = false
	if h.p.Paradigm == Hybrid {
		h.dispatchHybrid(proc)
		return
	}
	if next := h.sdisp.DispatchStack(proc); next >= 0 {
		h.stacks[next].queued = false
		if h.drec != nil || h.over != nil {
			h.choseDispatch(h.stacks[next].q.Front(), proc)
		}
		h.startStack(next, proc, false)
		return
	}
	h.goIdle(proc)
}

func (h *Host) startStack(k, proc int, fromIdle bool) {
	st := &h.stacks[k]
	if st.q.Len() == 0 {
		panic("sim: started an empty stack")
	}
	st.running = true
	st.queued = false
	h.beginService(st.q.Front(), proc, fromIdle, false, compIPS)
}

func (h *Host) queuedPackets() int {
	if h.p.Paradigm == Locking {
		return h.disp.Queued()
	}
	n := h.overflow.Len()
	for i := range h.stacks {
		q := h.stacks[i].q.Len()
		if h.stacks[i].running && q > 0 {
			q-- // the head is in service, not waiting
		}
		n += q
	}
	return n
}

// inFlight returns the number of packets in service right now: every
// busy processor serves exactly one packet.
func (h *Host) inFlight() int {
	n := 0
	for i := range h.procs {
		if h.procs[i].busy {
			n++
		}
	}
	return n
}

// Results assembles the run's metrics at the current instant; the
// backend calls it once the run is over.
func (h *Host) Results() Results {
	now := h.clk.Now()
	measureSpan := now - h.p.Warmup
	offered := float64(h.p.Streams) * h.p.Arrival.Rate()
	if h.p.ArrivalPerStream != nil {
		offered = 0
		for _, spec := range h.p.ArrivalPerStream {
			offered += spec.Rate()
		}
	}
	res := Results{
		Paradigm:       h.p.Paradigm.String(),
		Policy:         h.p.Policy.String(),
		OfferedRate:    offered,
		Completed:      uint64(h.measured),
		CompletedTotal: h.service.N(),
		Arrivals:       h.arrivals,
		MeanDelay:      h.delayMean.Mean(),
		DelayCI:        h.delays.HalfWidth(),
		MaxDelay:       h.maxDelay,
		MeanService:    h.service.Mean(),
		MeanQueueing:   h.queueing.Mean(),
		MeanLockWait:   h.lockWait.Mean(),
		ColdStarts:     h.coldStarts,
		Migrations:     h.migrations,
		Spills:         h.spills,
		QueueAtEnd:     h.queuedPackets(),
		InFlightAtEnd:  h.inFlight(),
		SimTime:        now,

		EventsFired:       h.clk.Fired(),
		RecorderEvents:    h.emitted,
		DecisionsRecorded: h.decisions,

		ReorderedTotal:     h.reordered,
		MaxReorderDistance: h.maxReorderDist,
		PerStreamReordered: h.streamReordered, // host-owned; nil when in order
	}
	res.P95Delay, res.P95Clamped = h.delayHist.QuantileClamped(0.95)
	res.DelayOverflow = h.delayHist.OverflowFraction()
	res.Dropped = h.dropped
	if h.arrivals > 0 {
		res.DropFraction = float64(h.dropped) / float64(h.arrivals)
	}
	if now > 0 {
		res.GoodputPPS = float64(h.service.N()) / now.Seconds()
	}
	if !h.p.Faults.Empty() {
		res.PerProcDownTime = make([]float64, len(h.procs))
		for i := range h.procs {
			dt := h.procs[i].downTime
			if h.procs[i].down {
				dt += float64(now - h.procs[i].downSince)
			}
			res.PerProcDownTime[i] = dt
		}
	}
	res.AffinityHits, res.Placements = h.place.AffinityStats()
	if total := h.service.N(); total > 0 {
		res.WarmFraction = float64(h.warm) / float64(total)
	}
	if measureSpan > 0 && h.measured > 0 {
		res.Throughput = float64(h.measured) / measureSpan.Seconds()
	}
	var util float64
	res.PerProcBusyTime = make([]float64, len(h.procs))
	for i := range h.procs {
		m := h.procs[i].util.Mean(float64(now))
		util += m
		res.PerProcBusyTime[i] = m * float64(now)
	}
	res.Utilization = util / float64(len(h.procs))
	res.Saturated = h.measured < h.p.MeasuredPackets ||
		res.QueueAtEnd > 20*h.p.Processors
	res.PerStreamDelay = make([]float64, len(h.perStream))
	for i := range h.perStream {
		res.PerStreamDelay[i] = h.perStream[i].Mean()
	}
	res.DelayFairness = JainIndex(res.PerStreamDelay)
	if m := obs.FindMetrics(h.p.Recorder); m != nil {
		snap := m.Snapshot()
		res.Obs = &snap
	}
	return res
}

// JainIndex returns Jain's fairness index over per-stream mean delays:
// (Σx)² / (n·Σx²) — 1 when all streams see equal delay, → 1/n when one
// stream absorbs everything. Streams with no measured packets are
// excluded.
func JainIndex(xs []float64) float64 {
	var sum, sumSq float64
	n := 0
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		sum += x
		sumSq += x * x
		n++
	}
	if n == 0 || sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(n) * sumSq)
}
