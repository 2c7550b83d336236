package live

import (
	"sync"

	"affinity/internal/des"
	"affinity/internal/faults"
	"affinity/internal/fifo"
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

	// workers[p] is processor p's wake slot. The host writes p's job
	// slot (Host.Job) under mu before Serve schedules the worker; the
	// worker reads it after the release.
	workers []*waiter

	// Virtual shared-stack lock (Locking & Hybrid overflow path): FIFO
	// grant order like des.Resource, waiters parked on the clock.
	lockHeld bool
	lockQ    fifo.Queue[lockRequest]

	wg sync.WaitGroup
}

// lockRequest is one processor queued for the shared-stack lock since
// the instant at.
type lockRequest struct {
	proc int
	at   des.Time
}

// live is the host's Clock; the host calls it under mu.
func (r *live) Now() des.Time { return r.clk.Now() }
func (r *live) Stop()         { r.clk.stop() }
func (r *live) Pending() int  { return r.clk.Pending() }
func (r *live) Fired() uint64 { return r.clk.Fired() }

// Serve hands the job to its processor's worker, which is parked or
// parks before it next touches the clock: the job's first interval,
// Pre, is scheduled on the worker's behalf, so the clock releases it
// when Pre has elapsed, as the DES fires the job's first event.
func (r *live) Serve(j *sim.Job) {
	r.clk.schedule(r.workers[j.Proc], j.Pre)
}

// run spawns the whole cast — one worker per processor, one arrival
// source per stream, the fault injector and the gauge sampler — and
// blocks until the run stops (measurement target, horizon, or
// quiescence) and every goroutine has unwound.
func (r *live) run() {
	n := r.p.Processors
	var evs []faults.Event
	var faultW, gaugeW *waiter
	if !r.p.Faults.Empty() {
		evs = r.p.Faults.Sorted()
		faultW = r.clk.newWaiter()
		n++
	}
	if r.p.Recorder != nil {
		gaugeW = r.clk.newWaiter()
		n++
	}
	r.workers = make([]*waiter, r.p.Processors)
	for proc := range r.workers {
		r.workers[proc] = r.clk.newWaiter()
	}
	// Draw every stream's first gap and pre-register its keyed sleeper
	// here, in stream order, before anything runs: exactly how the DES
	// runner seeds its event heap, and the base case of the keyed-sleeper
	// ordering (see clock.go) that makes same-instant arrivals fire in
	// the DES's deterministic order. The sources start life asleep, so
	// they are never counted in the runnable spawn below.
	type armedArrival struct {
		proc  traffic.Process
		batch int
		w     *waiter
	}
	arr := make([]armedArrival, r.p.Streams)
	for s := range arr {
		proc := r.host.ArrivalProcess(s)
		d, b := proc.Next()
		arr[s] = armedArrival{proc: proc, batch: b, w: r.clk.newWaiter()}
		r.clk.preSleep(arr[s].w, d)
	}
	r.clk.spawn(n)
	r.wg.Add(n + r.p.Streams)
	for proc := 0; proc < r.p.Processors; proc++ {
		go r.worker(proc)
	}
	for s := range arr {
		go r.arrivalLoop(s, arr[s].proc, arr[s].batch, arr[s].w)
	}
	if faultW != nil {
		go r.faultLoop(evs, faultW)
	}
	if gaugeW != nil {
		go r.gaugeLoop(gaugeW)
	}
	r.wg.Wait()
}

// arrivalLoop drives one stream: deliver the pending batch under the
// dispatch lock, draw the next gap, sleep it on the virtual clock — the
// same draw-then-deliver cycle as the DES arrival source, on the same
// seed-derived stream, so both backends see identical arrivals. The
// sleeps are keyed (serialized, deterministically ordered at virtual-
// time ties); the first was pre-registered by run() in stream order.
func (r *live) arrivalLoop(stream int, proc traffic.Process, batch int, w *waiter) {
	defer r.wg.Done()
	// Until the pre-registered first sleep releases, this source is a
	// sleeper, not a runnable: a run that stops first just unwinds with
	// no exit accounting.
	if !w.wait() {
		return
	}
	defer r.clk.exit()
	for {
		r.mu.Lock()
		for j := 0; j < batch; j++ {
			r.host.Arrive(r.clk.Now(), stream)
		}
		r.mu.Unlock()
		var d des.Time
		d, batch = proc.Next()
		if !r.clk.sleepKeyed(w, d) {
			return
		}
	}
}

// faultLoop plays the deterministic fault plan against the virtual
// clock, applying each event under the dispatch lock.
func (r *live) faultLoop(evs []faults.Event, w *waiter) {
	defer r.wg.Done()
	defer r.clk.exit()
	for _, ev := range evs {
		if !r.clk.sleepUntil(w, ev.At) {
			return
		}
		r.mu.Lock()
		r.host.Fault(r.clk.Now(), ev)
		r.mu.Unlock()
	}
}

// gaugeLoop publishes the periodic gauges every sim.GaugePeriod; it
// runs only when a recorder is attached, like the DES sampler.
func (r *live) gaugeLoop(w *waiter) {
	defer r.wg.Done()
	defer r.clk.exit()
	for {
		if !r.clk.sleep(w, sim.GaugePeriod) {
			return
		}
		r.mu.Lock()
		r.host.SampleGauges()
		r.mu.Unlock()
	}
}

// worker is one simulated processor. It parks until the clock releases
// it at the end of a job's Pre interval (Serve scheduled it). A locked
// job then takes the shared-stack lock and sleeps its critical section,
// or queues and parks until a release grants the lock and schedules the
// critical section for it. The worker then completes the job under the
// dispatch lock, where the host picks the processor's next work.
func (r *live) worker(proc int) {
	defer r.wg.Done()
	defer r.clk.exit()
	w, j := r.workers[proc], r.host.Job(proc)
	for {
		if !r.clk.park(w) {
			return
		}
		if j.Locked && !r.holdLock(proc, j.Crit) {
			return
		}
		r.mu.Lock()
		now := r.clk.Now()
		if j.Locked {
			r.releaseLockLocked(now)
		}
		r.host.Complete(now, j)
		r.mu.Unlock()
	}
}

// holdLock takes the virtual shared-stack lock for processor proc and
// plays its critical section, crit, out on the clock. A free lock is
// taken at once, with no wait; a held one queues the request FIFO, like
// des.Resource, and parks the worker until releaseLockLocked grants it.
// It returns false when the run stopped first.
func (r *live) holdLock(proc int, crit des.Time) bool {
	w := r.workers[proc]
	r.mu.Lock()
	if r.lockHeld {
		r.lockQ.Push(lockRequest{proc: proc, at: r.clk.Now()})
		r.mu.Unlock()
		return r.clk.park(w)
	}
	r.lockHeld = true
	r.host.LockWaited(0)
	r.mu.Unlock()
	return r.clk.sleep(w, crit)
}

// releaseLockLocked releases the virtual shared-stack lock at now. Like
// des.Resource.Release it grants the lock inside the release: the
// oldest queued request gets it, its wait is recorded, and its critical
// section is scheduled on the requester's behalf. With nobody queued
// the lock goes free. Called under mu.
func (r *live) releaseLockLocked(now des.Time) {
	req, ok := r.lockQ.Pop()
	if !ok {
		r.lockHeld = false
		return
	}
	r.host.LockWaited(now - req.at)
	r.clk.schedule(r.workers[req.proc], r.host.Job(req.proc).Crit)
}
