// Benchmarks: one whole experiment (E5, regenerating its rows in quick
// mode) plus micro-benchmarks for the hot components — the analytic
// model, the cache simulator, the DES engine, the dispatchers and the
// simulation itself. scripts/benchgate.sh gates a subset; the
// bench/ module (affinitybench) times the whole suite end to end.
//
// Run with: go test -bench=. -benchmem
package affinity_test

import (
	"slices"
	"strconv"
	"testing"

	"affinity"
	"affinity/internal/cachesim"
	"affinity/internal/core"
	"affinity/internal/des"
	"affinity/internal/memtrace"
	"affinity/internal/sched"
	"affinity/internal/traffic"
)

// BenchmarkFigE5LockingDelay regenerates E5's table (the paper's Fig 6
// scenario) per iteration.
func BenchmarkFigE5LockingDelay(b *testing.B) {
	e, ok := affinity.ExperimentByID("E5")
	if !ok {
		b.Fatal("unknown experiment E5")
	}
	cfg := affinity.ExperimentConfig{Quick: true, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := e.Run(cfg); len(tbl.Rows) == 0 {
			b.Fatal("E5 produced no rows")
		}
	}
}

// --- micro-benchmarks ---

func BenchmarkModelExecTime(b *testing.B) {
	m := core.NewModel()
	sum := 0.0
	for i := 0; i < b.N; i++ {
		sum += m.ExecTime(float64(i%200000) * 10)
	}
	_ = sum
}

// BenchmarkExecTimeCompiled times the compiled model, the evaluator
// the simulator calls once per packet. The calls do not depend on each
// other, so they overlap: this is its throughput.
func BenchmarkExecTimeCompiled(b *testing.B) {
	e := core.NewModel().Compile()
	sum := 0.0
	for i := 0; i < b.N; i++ {
		t, _ := e.ExecTimeF1(float64(i%200000) * 10)
		sum += t
	}
	_ = sum
}

// BenchmarkExecTimeCompiledChain times the compiled model on the
// reference counts BenchmarkExecTimeCompiled uses, but each derived
// from the previous call's result, as in a simulation, where a
// packet's displacing references follow from earlier service times.
// No call can start before the last one ends: this is its latency.
func BenchmarkExecTimeCompiledChain(b *testing.B) {
	e := core.NewModel().Compile()
	refs := 0.0
	for i := 0; i < b.N; i++ {
		t, _ := e.ExecTimeF1(refs)
		refs = float64(i%200000)*10 + t
	}
	_ = refs
}

func BenchmarkModelDisplacedFraction(b *testing.B) {
	c := core.SGIChallengeXL().L2
	w := core.MVSWorkload()
	sum := 0.0
	for i := 0; i < b.N; i++ {
		sum += core.DisplacedFraction(w.UniqueLines(float64(i%100000), 128), c)
	}
	_ = sum
}

func BenchmarkCacheSimAccess(b *testing.B) {
	h := cachesim.New(core.SGIChallengeXL(), cachesim.DefaultTiming())
	trace := memtrace.NewProtocolTrace(0).Packet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := trace[i%len(trace)]
		h.Access(r.Addr, r.Kind)
	}
}

func BenchmarkCacheSimColdPacket(b *testing.B) {
	h := cachesim.New(core.SGIChallengeXL(), cachesim.DefaultTiming())
	trace := memtrace.NewProtocolTrace(0).Packet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.FlushAll()
		for _, r := range trace {
			h.Access(r.Addr, r.Kind)
		}
	}
}

// BenchmarkDESScheduleFire times one schedule+fire pair through the
// engine's one-shot path: ScheduleArg with a non-capturing handler, as
// the runner schedules fault and gauge events (BenchmarkDESTimers times
// the timer path its arrivals and services take).
func BenchmarkDESScheduleFire(b *testing.B) {
	s := des.NewSimulator()
	for i := 0; i < b.N; i++ {
		s.ScheduleArg(des.Time(i%64), noopEvent, nil)
		s.Step()
	}
}

func noopEvent(any) {}

// BenchmarkDESEventQueue times one schedule+fire pair with the event
// list held at a fixed depth, so every op sifts through a real heap:
// 12 and 103 pending are the mean depths of the des-mru-zipf-burst and
// des-wired-96 runs. Each op schedules one event at a pre-drawn delay,
// uniform over twice the depth in microseconds, and fires the earliest.
func BenchmarkDESEventQueue(b *testing.B) {
	for _, depth := range []int{12, 103} {
		b.Run("pending="+strconv.Itoa(depth), func(b *testing.B) {
			rng := des.NewRNG(1)
			delays := make([]des.Time, 4096)
			for i := range delays {
				delays[i] = des.Time(rng.Float64() * float64(2*depth))
			}
			s := des.NewSimulator()
			for i := range depth {
				s.ScheduleArg(delays[i], noopEvent, nil)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ScheduleArg(delays[i&4095], noopEvent, nil)
				s.Step()
			}
		})
	}
}

// BenchmarkDESTimers times one timer firing with n timers pending, in
// the arrival streams' pattern: each op fires the earliest timer, and
// its handler re-arms it at the next pre-drawn delay, drawn as
// BenchmarkDESEventQueue draws them, at the same two depths.
func BenchmarkDESTimers(b *testing.B) {
	for _, depth := range []int{12, 103} {
		b.Run("pending="+strconv.Itoa(depth), func(b *testing.B) {
			rng := des.NewRNG(1)
			tb := &timerBench{s: des.NewSimulator(), delays: make([]des.Time, 4096)}
			for i := range tb.delays {
				tb.delays[i] = des.Time(rng.Float64() * float64(2*depth))
			}
			timers := make([]benchTimer, depth)
			for i := range timers {
				timers[i] = benchTimer{b: tb}
				timers[i].t = tb.s.NewTimer(rearmTimer, &timers[i])
			}
			for i := range timers {
				tb.s.Arm(timers[i].t, tb.delays[i])
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb.s.Step()
			}
		})
	}
}

// timerBench is BenchmarkDESTimers' simulator and delay stream; next
// indexes the delay the next re-arm takes.
type timerBench struct {
	s      *des.Simulator
	delays []des.Time
	next   int
}

// benchTimer is one of BenchmarkDESTimers' timers.
type benchTimer struct {
	b *timerBench
	t *des.Timer
}

func rearmTimer(a any) {
	bt := a.(*benchTimer)
	tb := bt.b
	tb.s.Arm(bt.t, tb.delays[tb.next&4095])
	tb.next++
}

// perPacketParams is the per-packet benchmarks' run: Locking/MRU on 8
// Poisson streams at 2,000 pkt/s each, measuring b.N packets (at least
// 100). The streams offer 16,000 pkt/s, so a horizon of 1 s plus 1 ms
// per packet leaves room for every measured packet: the run ends at the
// last one, and its length grows with b.N.
func perPacketParams(b *testing.B) affinity.Params {
	n := max(b.N, 100)
	return affinity.Params{
		Paradigm:        affinity.Locking,
		Policy:          affinity.MRU,
		Streams:         8,
		Arrival:         affinity.Poisson{PacketsPerSec: 2000},
		Seed:            1,
		MeasuredPackets: n,
		MaxTime:         des.Second + des.Time(n)*des.Millisecond,
	}
}

// runPerPacket times one run of p on backend and fails unless every
// measured packet completed: a run cut short by its horizon would be a
// fixed cost divided by b.N.
func runPerPacket(b *testing.B, backend affinity.Backend, p affinity.Params) affinity.Results {
	b.ResetTimer()
	res := affinity.RunBackend(backend, p)
	b.StopTimer()
	if res.Completed != uint64(p.MeasuredPackets) {
		b.Fatalf("%d of %d measured packets completed", res.Completed, p.MeasuredPackets)
	}
	return res
}

func BenchmarkSimulationPerPacket(b *testing.B) {
	// Cost of one simulated packet through the DES + model + policies.
	runPerPacket(b, affinity.BackendDES, perPacketParams(b))
}

func BenchmarkLivePerPacket(b *testing.B) {
	// The same packets on the live backend: its virtual clock, firing
	// arrival sources and releasing processor goroutines, in place of the
	// DES's event loop. A run allocates nothing per packet.
	b.ReportAllocs()
	runPerPacket(b, affinity.BackendLive, perPacketParams(b))
}

func BenchmarkWorkloadSpecPerPacket(b *testing.B) {
	// Steady-state cost of drawing one arrival from a generated workload
	// (Zipf-split Poisson, batch, and ON/OFF-modulated CBR streams): the
	// per-packet hot path of every spec-driven simulation. Drawing must
	// be allocation-free — setup (parse, generate, build) is outside the
	// timed region.
	spec, err := affinity.ParseWorkload([]byte(`{
		"classes": [
			{"name": "web", "model": "poisson", "streams": 6, "rate_pps": 4200, "zipf": 1.2},
			{"name": "bulk", "model": "batch", "streams": 2, "rate_pps": 1800, "mean_burst": 4},
			{"name": "control", "model": "cbr", "streams": 1, "rate_pps": 100, "on_us": 20000, "off_us": 60000}
		]
	}`))
	if err != nil {
		b.Fatal(err)
	}
	per, err := spec.Generate()
	if err != nil {
		b.Fatal(err)
	}
	procs := make([]traffic.Process, len(per))
	for i, s := range per {
		procs[i] = s.Build(des.Stream(1, "arrivals-"+strconv.Itoa(i)))
	}
	var sink des.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, _ := procs[i%len(procs)].Next()
		sink += d
	}
	_ = sink
}

func BenchmarkDecisionLedgerPerPacket(b *testing.B) {
	// Same simulation with the decision ledger attached to a flight
	// recorder: the delta against BenchmarkSimulationPerPacket is the
	// whole cost of recording every dispatch decision, and allocs/op
	// must stay at the amortized-startup level — decision emission
	// itself is allocation-free (pinned by the sim alloc tests, gated
	// here against drift).
	p := perPacketParams(b)
	p.DecisionRecorder = affinity.NewFlightRecorder(0, 0)
	b.ReportAllocs()
	if res := runPerPacket(b, affinity.BackendDES, p); res.DecisionsRecorded == 0 {
		b.Fatal("no decisions recorded")
	}
}

// BenchmarkDispatch times one dispatcher event, an arrival or a
// completion, for every scheduling policy, through the constructors the
// simulator uses. Each iteration replays the next step of a fixed cycle
// on 8 processors and 16 streams (16 stacks under IPS): its first half
// brings three arrivals per completion and builds a backlog about 2000
// packets deep, its second half drains it. AffinitySteal runs a middle
// point of its family (Penalty 20 µs, DepthThreshold 8, ColdBias 0.5).
// One untimed cycle first grows every queue to its working set, so the
// timed cycles allocate nothing.
func BenchmarkDispatch(b *testing.B) {
	const procs, streams = 8, 16
	steps := dispatchCycle(streams)
	for k := sched.FCFS; k <= sched.AffinitySteal; k++ {
		b.Run(k.String(), func(b *testing.B) {
			r := newDispatchReplay(k, procs, streams)
			for _, s := range steps {
				r.step(s)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.step(steps[i%len(steps)])
			}
		})
	}
}

// dispatchCycle returns the replayed cycle: a stream index is an
// arrival on that stream, -1 a completion. Arrivals outnumber
// completions three to one in the first half and one to three in the
// second, so the cycle ends with the system as it began.
func dispatchCycle(streams int) []int {
	rng := des.NewRNG(1)
	steps := make([]int, 0, 8192)
	for _, pattern := range [2]string{"aaac", "accc"} {
		for range 8192 / 2 / len(pattern) {
			for _, c := range pattern {
				if c == 'c' {
					steps = append(steps, -1)
				} else {
					steps = append(steps, rng.Intn(streams))
				}
			}
		}
	}
	return steps
}

// dispatchReplay is a minimal host around one dispatcher: it tracks
// which entity each processor runs and, under IPS, how many packets each
// stack holds.
type dispatchReplay struct {
	pd      sched.PacketDispatcher // Locking kinds
	sd      sched.StackDispatcher  // IPS kinds
	on      []int                  // processor → running entity, -1 when idle
	idle    []int                  // idle processors, ascending
	pending []int                  // IPS: stack → packets not yet completed
	cursor  int                    // round-robin choice of the completing processor
	now     des.Time
}

func newDispatchReplay(k sched.Kind, procs, streams int) *dispatchReplay {
	r := &dispatchReplay{on: make([]int, procs), idle: make([]int, 0, procs)}
	for p := range r.on {
		r.on[p] = -1
		r.idle = append(r.idle, p)
	}
	if k.ForIPS() {
		r.sd = sched.NewStackDispatcherLookahead(k, streams, procs, des.NewRNG(1), 4)
		r.pending = make([]int, streams)
		return r
	}
	steal := sched.StealConfig{
		StealParams: sched.StealParams{Penalty: 20, DepthThreshold: 8, ColdBias: 0.5},
		Now:         func() des.Time { return r.now },
	}
	r.pd = sched.NewPacketDispatcherFull(k, procs, des.NewRNG(1), 4, sched.HashConfig{}, steal)
	return r
}

func (r *dispatchReplay) start(proc, entity int) {
	r.on[proc] = entity
	r.idle = slices.DeleteFunc(r.idle, func(q int) bool { return q == proc })
}

func (r *dispatchReplay) stop(proc int) {
	r.on[proc] = -1
	i, _ := slices.BinarySearch(r.idle, proc)
	r.idle = slices.Insert(r.idle, i, proc)
}

func (r *dispatchReplay) step(s int) {
	r.now += 10
	if s >= 0 {
		r.arrive(s)
		return
	}
	// Some processor is busy: the cycle never completes more packets
	// than have arrived, and no policy here leaves every processor idle
	// while packets wait.
	for range r.on {
		r.cursor = (r.cursor + 1) % len(r.on)
		if r.on[r.cursor] >= 0 {
			r.complete(r.cursor)
			return
		}
	}
}

func (r *dispatchReplay) arrive(s int) {
	if r.sd != nil {
		if r.pending[s]++; r.pending[s] > 1 {
			return // already running or ready
		}
		if len(r.idle) > 0 {
			if proc := r.sd.PickProcessor(s, r.idle); proc >= 0 {
				r.start(proc, s)
				return
			}
		}
		r.sd.EnqueueStack(s)
		return
	}
	pk := sched.Packet{Stream: s, Entity: s, Arrive: r.now}
	if len(r.idle) > 0 {
		if proc := r.pd.PickProcessor(pk, r.idle); proc >= 0 {
			r.start(proc, s)
			return
		}
	}
	r.pd.Enqueue(pk)
}

func (r *dispatchReplay) complete(proc int) {
	e := r.on[proc]
	if r.sd != nil {
		r.sd.RanOn(e, proc)
		if r.pending[e]--; r.pending[e] > 0 {
			r.sd.EnqueueStack(e)
		}
		if next := r.sd.DispatchStack(proc); next >= 0 {
			r.on[proc] = next
		} else {
			r.stop(proc)
		}
		return
	}
	r.pd.RanOn(e, proc)
	if pk, ok := r.pd.Dispatch(proc); ok {
		r.on[proc] = pk.Entity
	} else {
		r.stop(proc)
	}
}
