package live

import (
	"sync"

	"affinity/internal/des"
	"affinity/internal/faults"
	"affinity/internal/sim"
	"affinity/internal/traffic"
)

// Run executes one live (goroutine-backed) run of the configuration and
// returns its metrics in the same sim.Results shape the DES produces.
// The run drives the DES's own host core (sim.Host) under the virtual
// clock, so where no two events share an instant the Results equal the
// DES's bit for bit (see the package comment and DESIGN.md §10).
func Run(p sim.Params) sim.Results {
	p = p.WithDefaults()
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if p.DecisionOverride != nil {
		// Counterfactual replay needs the DES's bit determinism: worker
		// interleaving would make the live decision ordinals drift from
		// the ledger they were recorded against.
		panic("live: Params.DecisionOverride is DES-only")
	}
	r := &live{p: p, clk: newClock(p.MaxTime)}
	r.host = sim.NewHost(p, r)
	r.run()
	return r.host.Results()
}

// live is one run's backend state around the shared host core. mu is
// the dispatch lock — the live analogue of the queue lock a real
// parallel dispatcher serializes its scheduling decisions under. Every
// host call (arrivals, completions, faults, gauges) happens under mu at
// a fixed virtual instant; the real concurrency is in the workers
// racing for mu and playing out their service intervals on the clock
// in parallel.
type live struct {
	p    sim.Params
	clk  *clock
	host *sim.Host

	mu sync.Mutex // the dispatch/queue lock

	// workers[p] is processor p's wake slot. The host asks for p's next
	// interval under mu (After), and the worker reports its end under mu.
	workers []*waiter

	wg sync.WaitGroup
}

// live is the host's Clock; the host calls it under mu.
func (r *live) Now() des.Time { return r.clk.Now() }
func (r *live) Stop()         { r.clk.stop() }
func (r *live) Pending() int  { return r.clk.Pending() }
func (r *live) Fired() uint64 { return r.clk.Fired() }

// After schedules the interval on processor proc's worker, which is
// parked or parks before it next touches the clock: the clock releases
// it when d has elapsed, as the DES fires the processor's timer.
func (r *live) After(proc int, d des.Time) {
	r.clk.schedule(r.workers[proc], d)
}

// run registers the event sources in the DES runner's order — every
// fault-plan event at its instant, the gauge sampler when a recorder is
// attached, then each stream's first arrival in stream order — and
// starts one worker per processor. It blocks until the run stops
// (measurement target, horizon, or quiescence) and every worker has
// unwound.
func (r *live) run() {
	for _, ev := range r.p.Faults.Sorted() {
		r.clk.fireAt(ev.At, &fault{r, ev})
	}
	if r.p.Recorder != nil {
		r.clk.fireAt(sim.GaugePeriod, gauge{r})
	}
	for s := 0; s < r.p.Streams; s++ {
		a := &arrival{r: r, stream: s, proc: r.host.ArrivalProcess(s)}
		var d des.Time
		d, a.batch = a.proc.Next()
		r.clk.fireAt(d, a)
	}
	r.workers = make([]*waiter, r.p.Processors)
	for proc := range r.workers {
		r.workers[proc] = r.clk.newWaiter()
	}
	r.clk.spawn(r.p.Processors)
	r.wg.Add(r.p.Processors)
	for proc := range r.workers {
		go r.worker(proc)
	}
	r.wg.Wait()
}

// arrival is one stream's source: it delivers the batch drawn on its
// previous firing under the dispatch lock, then draws the next gap —
// the DES arrival source's draw-then-deliver cycle on the same
// seed-derived stream, so both backends see identical arrivals.
type arrival struct {
	r      *live
	stream int
	proc   traffic.Process
	batch  int
}

func (a *arrival) fire(now des.Time) (des.Time, bool) {
	a.r.mu.Lock()
	for j := 0; j < a.batch; j++ {
		a.r.host.Arrive(now, a.stream)
	}
	a.r.mu.Unlock()
	var d des.Time
	d, a.batch = a.proc.Next()
	return d, true
}

// fault applies one fault-plan event under the dispatch lock.
type fault struct {
	r  *live
	ev faults.Event
}

func (f *fault) fire(now des.Time) (des.Time, bool) {
	f.r.mu.Lock()
	f.r.host.Fault(now, f.ev)
	f.r.mu.Unlock()
	return 0, false
}

// gauge publishes the periodic gauges every sim.GaugePeriod; it is
// registered only when a recorder is attached, like the DES sampler.
type gauge struct{ r *live }

func (g gauge) fire(des.Time) (des.Time, bool) {
	g.r.mu.Lock()
	g.r.host.SampleGauges()
	g.r.mu.Unlock()
	return sim.GaugePeriod, true
}

// worker is one simulated processor. It parks until the clock releases
// it at the end of an interval the host asked for (After), then reports
// the end to the host under the dispatch lock, where the host takes or
// releases the shared-stack lock and picks the processor's next work.
// While it parks, the clock may fire due sources on it.
func (r *live) worker(proc int) {
	defer r.wg.Done()
	defer r.clk.exit()
	w := r.workers[proc]
	for r.clk.park(w) {
		r.mu.Lock()
		r.host.Elapsed(r.clk.Now(), proc)
		r.mu.Unlock()
	}
}
