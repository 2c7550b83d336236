package bench

import (
	"io"
	"math"
	"runtime"
	"slices"
	"time"

	"affinity/internal/des"
	"affinity/internal/live"
	"affinity/internal/obs"
	"affinity/internal/policysearch"
	"affinity/internal/sched"
	"affinity/internal/sim"
	"affinity/internal/traffic"
)

// probeBudget is how long a micro-probe repeats its call before
// dividing; long enough that timer resolution and one-off costs vanish.
const probeBudget = 30 * time.Millisecond

// sink keeps the compiler from discarding a probed pure call.
var sink float64

// Layers computes the per-layer metrics of a traced run. untraced and
// traced are its operations, sp its span log and rec its phase recorder,
// which holds the events of the single-run workloads' traced operations
// and is filled here, from the suite's representative run, for the
// suite. Every probe is fed with the workload's own Params or with
// inputs captured in rec.
func (w *Workload) Layers(sp *Spans, rec *PhaseRecorder, untraced, traced []Op) map[string]float64 {
	m := map[string]float64{}
	m["exp.critical_s"] = medianOp(traced, func(o Op) float64 { return o.Critical.Seconds() })
	m["exp.busy_s"] = medianOp(traced, func(o Op) float64 { return o.Busy.Seconds() })
	m["exp.render_ms"] = medianOp(traced, func(o Op) float64 { return o.Render.Seconds() * 1e3 })
	m["exp.check_ms"] = medianOp(traced, func(o Op) float64 { return o.Check.Seconds() * 1e3 })
	wall := func(o Op) float64 { return o.Wall.Seconds() }
	m["trace.overhead"] = medianOp(traced, wall) / medianOp(untraced, wall)
	m["pool.submissions"] = medianOp(untraced, func(o Op) float64 { return float64(o.Submissions) })
	m["pool.hit_ratio"] = medianOp(untraced, func(o Op) float64 { return ratio(o.Hits, o.Submissions) })
	m["des.events_per_op"] = medianOp(untraced, func(o Op) float64 { return float64(o.Events) })
	m["go.allocs_per_op"] = medianOp(untraced, func(o Op) float64 { return float64(o.Runtime.Allocs) })
	m["go.alloc_mb_per_op"] = medianOp(untraced, func(o Op) float64 { return float64(o.Runtime.AllocBytes) / (1 << 20) })
	m["go.gc_per_op"] = medianOp(untraced, func(o Op) float64 { return float64(o.Runtime.GCs) })
	var gcCPU, totalCPU float64
	for _, o := range untraced {
		gcCPU += o.Runtime.GCCPU
		totalCPU += o.Runtime.TotalCPU
	}
	m["go.gc_cpu_frac"] = gcCPU / math.Max(totalCPU, 1e-9)

	// The recorded run and its untraced twin: the traced and untraced
	// operations of a single-run workload, the representative point run
	// both ways for the suite.
	p := w.params
	var twin sim.Results
	var twinWall time.Duration
	if w.backend == nil {
		probe(sp, "sim.Run", func() {
			t0 := time.Now()
			twin = sim.Run(p)
			twinWall = time.Since(t0)
		})
		probe(sp, "sim.Run+PhaseRecorder", func() {
			rp := p
			rp.Recorder = rec
			rec.begin()
			sim.Run(rp)
		})
	} else {
		twin = untraced[0].Results
		twinWall = time.Duration(medianOp(untraced, func(o Op) float64 { return float64(o.Busy) }))
	}
	m["sim.host_ns_per_pkt"] = float64(twinWall) / float64(twin.Arrivals)
	for i, ph := range Phases {
		m["sim.phase_ns."+ph] = float64(rec.ns[i]) / math.Max(float64(rec.n[i]), 1)
	}
	m["des.heap_mean"] = rec.heapSum / math.Max(float64(rec.heapN), 1)
	m["core.cold_frac"] = ratio(rec.colds, rec.execs)
	m["sched.affinity_hit_ratio"] = ratio(twin.AffinityHits, twin.Placements)
	m["sched.migrations_per_kpkt"] = 1000 * ratio(twin.Migrations, twin.CompletedTotal)
	m["sched.reordered_per_kpkt"] = 1000 * ratio(twin.ReorderedTotal, twin.CompletedTotal)

	pd := p.WithDefaults()
	ev := rec.captured
	probe(sp, "sim.CacheKey", func() {
		m["pool.cachekey_us"] = perCall(func() int { sim.CacheKey(p); return 1 }) / 1e3
	})
	probe(sp, "sim.Run fixed cost", func() {
		fixed := p
		fixed.MeasuredPackets = 1
		var runs []float64
		for range 5 {
			t0 := time.Now()
			sim.Run(fixed)
			runs = append(runs, float64(time.Since(t0))/1e3)
		}
		m["sim.run_fixed_us"] = median(runs)
	})
	probe(sp, "des.Simulator", func() { m["des.event_ns"] = heapProbe(m["des.heap_mean"], ev, w.Seed) })
	probe(sp, "core.Exec", func() {
		exec := pd.Model.Compile()
		var xs []float64
		for _, e := range ev {
			if e.Kind == obs.KindExecStart {
				xs = append(xs, e.Val)
			}
		}
		m["core.exec_ns"] = perCall(func() int {
			for _, x := range xs {
				t, f1 := exec.ExecTimeF1(x)
				sink += t + f1
			}
			return len(xs)
		})
	})
	probe(sp, "sched.Dispatcher", func() { m["sched.decision_ns"] = replayDispatch(pd, ev) })
	probe(sp, "traffic.Process", func() {
		specs := pd.ArrivalPerStream
		procs := make([]traffic.Process, len(specs))
		for i, s := range specs {
			procs[i] = s.Build(des.NewRNG(w.Seed + int64(i)))
		}
		m["traffic.draw_ns"] = perCall(func() int {
			for range 64 {
				for _, pr := range procs {
					pr.Next()
				}
			}
			return 64 * len(procs)
		})
	})
	probe(sp, "workload.Spec.Generate", func() {
		m["workload.generate_us"] = perCall(func() int {
			if _, err := p.Workload.Generate(); err != nil {
				panic(err) // Params already expanded this spec once
			}
			return 1
		}) / 1e3
	})
	probe(sp, "live.Run", func() {
		lp := p
		lp.MeasuredPackets = max(p.MeasuredPackets/10, 3000)
		t0 := time.Now()
		d := sim.Run(lp)
		dw := time.Since(t0)
		t0 = time.Now()
		l := live.Run(lp)
		lw := time.Since(t0)
		m["live.event_ns"] = float64(lw) / float64(l.EventsFired)
		m["live.slowdown"] = float64(lw) / float64(dw)
		m["live.delay_rel_err"] = math.Abs(l.MeanDelay-d.MeanDelay) / d.MeanDelay
	})
	var ledger *obs.LedgerRecorder
	probe(sp, "policysearch", func() {
		base := p
		base.Paradigm, base.Stacks, base.MeasuredPackets, base.MaxTime = sim.Locking, 0, 3000, 0
		if !base.Policy.ForLocking() {
			base.Policy = sched.MRU
		}
		t0 := time.Now()
		rep := policysearch.Search(sim.NewPool(runtime.GOMAXPROCS(0)), base,
			policysearch.DefaultSpace(), policysearch.DefaultWeights())
		m["policysearch.search_s"] = time.Since(t0).Seconds()
		m["policysearch.evaluated"] = float64(rep.Evaluated)
		t0 = time.Now()
		var factual sim.Results
		factual, ledger = policysearch.Factual(base)
		policysearch.TopK(base, factual, ledger, 5)
		m["policysearch.topk_s"] = time.Since(t0).Seconds()
	})
	probe(sp, "obs sinks", func() {
		sinks := []struct {
			name string
			make func() obs.Recorder
		}{
			{"csv", func() obs.Recorder { return obs.NewCSV(io.Discard) }},
			{"chrome", func() obs.Recorder { return obs.NewChromeTrace(io.Discard) }},
			{"metrics", func() obs.Recorder { return obs.NewMetrics() }},
			{"timeseries", func() obs.Recorder { return obs.NewTimeSeries(io.Discard, 1000, pd.Processors) }},
		}
		for _, s := range sinks {
			replay := func() int {
				r := s.make()
				for _, e := range ev {
					r.Record(e)
				}
				if c, ok := r.(io.Closer); ok {
					c.Close()
				}
				return len(ev)
			}
			m["obs.record_ns."+s.name] = perCall(replay)
			if s.name == "csv" || s.name == "chrome" {
				m["obs.allocs_per_event."+s.name] = allocsPer(replay)
			}
		}
		ds := ledger.Decisions()
		m["obs.record_ns.ledger"] = perCall(func() int {
			l := obs.NewLedgerRecorder()
			for _, d := range ds {
				l.RecordDecision(d)
			}
			return len(ds)
		})
	})
	return m
}

// probe runs f inside a span named after the layer it measures.
func probe(sp *Spans, layer string, f func()) {
	s := sp.Begin("probe:"+layer, -1, -1, 0)
	f()
	sp.End(s)
}

// perCall repeats f, which reports how many calls it made, until
// probeBudget has passed, and returns the mean nanoseconds per call.
func perCall(f func() int) float64 {
	calls := 0
	t0 := time.Now()
	for time.Since(t0) < probeBudget {
		calls += f()
	}
	return float64(time.Since(t0)) / float64(max(calls, 1))
}

// allocsPer returns the heap allocations per call of one run of f.
func allocsPer(f func() int) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	calls := f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(max(calls, 1))
}

// heapProbe times one ScheduleArg+Step pair on an event heap held at the
// workload's mean depth, with delays spread over the horizon that depth
// covers in the captured stream.
func heapProbe(depth float64, ev []obs.Event, seed int64) float64 {
	n := max(int(math.Round(depth)), 1)
	span := 1.0
	if len(ev) > 1 {
		span = (ev[len(ev)-1].T - ev[0].T) / float64(len(ev)-1) * float64(n) * 2
	}
	rng := des.NewRNG(seed)
	delays := make([]des.Time, 4096)
	for i := range delays {
		delays[i] = des.Time(rng.Float64() * span)
	}
	s := des.NewSimulator()
	noop := func(any) {}
	for i := range n {
		s.ScheduleArg(delays[i%len(delays)], noop, nil)
	}
	i := 0
	return perCall(func() int {
		for range 1024 {
			s.ScheduleArg(delays[i&4095], noop, nil)
			s.Step()
			i++
		}
		return 1024
	})
}

// replayDispatch drives a fresh dispatcher of the workload's policy with
// the captured arrival and completion sequence and returns the mean
// nanoseconds per placement or dispatch decision. The replay keeps its
// own processor state, so its decisions may differ from the captured
// run's; what it reproduces is the call mix and the queue contents the
// workload's traffic produces.
func replayDispatch(p sim.Params, ev []obs.Event) float64 {
	var decide func() int
	if p.Paradigm == sim.Locking {
		decide = func() int { return replayLocking(p, ev) }
	} else {
		decide = func() int { return replayStacks(p, ev) }
	}
	return perCall(decide)
}

// replayState is the processor bookkeeping both replays share: which
// processors are idle, and what each busy one runs.
type replayState struct {
	idle []int
	on   []int // entity (or stack) running on each processor, -1 if idle
}

func newReplayState(procs int) *replayState {
	r := &replayState{on: make([]int, procs)}
	for i := range r.on {
		r.on[i] = -1
		r.idle = append(r.idle, i)
	}
	return r
}

func (r *replayState) start(proc, entity int) {
	r.idle = slices.DeleteFunc(r.idle, func(q int) bool { return q == proc })
	r.on[proc] = entity
}

// finisher picks the processor a captured completion frees: the captured
// one when it is busy in the replay too, else the first busy one, or -1.
func (r *replayState) finisher(proc int) int {
	if proc >= 0 && proc < len(r.on) && r.on[proc] >= 0 {
		return proc
	}
	for q, e := range r.on {
		if e >= 0 {
			return q
		}
	}
	return -1
}

func replayLocking(p sim.Params, ev []obs.Event) int {
	var now des.Time
	d := sched.NewPacketDispatcherFull(p.Policy, p.Processors, des.NewRNG(p.Seed), p.MRULookahead,
		sched.HashConfig{Rebalance: p.FDRebalance},
		sched.StealConfig{StealParams: p.Steal, Now: func() des.Time { return now }})
	st := newReplayState(p.Processors)
	decisions := 0
	for _, e := range ev {
		switch e.Kind {
		case obs.KindArrival:
			now = des.Time(e.T)
			pkt := sched.Packet{Stream: e.Stream, Entity: e.Entity, Arrive: now, Seq: e.Seq}
			if len(st.idle) > 0 {
				decisions++
				if c := d.PickProcessor(pkt, st.idle); c >= 0 {
					st.start(c, e.Entity)
					continue
				}
			}
			d.Enqueue(pkt)
		case obs.KindExecEnd:
			q := st.finisher(e.Proc)
			if q < 0 {
				continue
			}
			d.RanOn(st.on[q], q)
			decisions++
			if pkt, ok := d.Dispatch(q); ok {
				st.on[q] = pkt.Entity
			} else {
				st.on[q] = -1
				st.idle = append(st.idle, q)
			}
		}
	}
	return max(decisions, 1)
}

func replayStacks(p sim.Params, ev []obs.Event) int {
	d := sched.NewStackDispatcherLookahead(p.Policy, p.Stacks, p.Processors, des.NewRNG(p.Seed), p.MRULookahead)
	st := newReplayState(p.Processors)
	depth := make([]int, p.Stacks)
	busy := make([]bool, p.Stacks) // running or queued as ready
	decisions := 0
	for _, e := range ev {
		switch e.Kind {
		case obs.KindArrival:
			k := e.Entity
			depth[k]++
			if busy[k] {
				continue
			}
			busy[k] = true
			if len(st.idle) > 0 {
				decisions++
				if c := d.PickProcessor(k, st.idle); c >= 0 {
					st.start(c, k)
					continue
				}
			}
			d.EnqueueStack(k)
		case obs.KindExecEnd:
			q := st.finisher(e.Proc)
			if q < 0 {
				continue
			}
			k := st.on[q]
			depth[k]--
			d.RanOn(k, q)
			decisions++
			next := d.DispatchStack(q)
			switch {
			case next >= 0 && depth[k] > 0:
				d.EnqueueStack(k) // yield to the waiting stack
				st.on[q] = next
			case next >= 0:
				busy[k] = false
				st.on[q] = next
			case depth[k] > 0:
				// keep running k
			default:
				busy[k] = false
				st.on[q] = -1
				st.idle = append(st.idle, q)
			}
		}
	}
	return max(decisions, 1)
}

func medianOp(ops []Op, f func(Op) float64) float64 {
	xs := make([]float64, len(ops))
	for i, o := range ops {
		xs[i] = f(o)
	}
	return median(xs)
}

// median returns the middle value (mean of the middle two), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
