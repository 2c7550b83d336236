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
	r := &live{p: p, clk: newClock(p.MaxTime), workCh: make([]chan sim.Job, p.Processors)}
	for i := range r.workCh {
		r.workCh[i] = make(chan sim.Job, 1)
	}
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

	// Virtual shared-stack lock (Locking & Hybrid overflow path): FIFO
	// grant order like des.Resource, waiters parked on the clock.
	lockHeld bool
	lockQ    []chan struct{}

	workCh []chan sim.Job
	wg     sync.WaitGroup
}

// live is the host's Clock; the host calls it under mu.
func (r *live) Now() des.Time { return r.clk.Now() }
func (r *live) Stop()         { r.clk.stop() }
func (r *live) Pending() int  { return r.clk.Pending() }
func (r *live) Fired() uint64 { return r.clk.Fired() }

// Serve hands the job to its processor's worker goroutine, which plays
// the interval out on the virtual clock.
func (r *live) Serve(j sim.Job) {
	r.clk.wake()
	r.workCh[j.Proc] <- j
}

// run spawns the whole cast — one worker per processor, one arrival
// source per stream, the fault injector and the gauge sampler — and
// blocks until the run stops (measurement target, horizon, or
// quiescence) and every goroutine has unwound.
func (r *live) run() {
	n := r.p.Processors
	evs := []faults.Event(nil)
	if !r.p.Faults.Empty() {
		evs = r.p.Faults.Sorted()
		n++
	}
	if r.p.Recorder != nil {
		n++
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
		first chan struct{}
	}
	arr := make([]armedArrival, r.p.Streams)
	for s := 0; s < r.p.Streams; s++ {
		proc := r.host.ArrivalProcess(s)
		d, b := proc.Next()
		arr[s] = armedArrival{proc: proc, batch: b, first: r.clk.preSleep(d)}
	}
	r.clk.spawn(n)
	r.wg.Add(n + r.p.Streams)
	for proc := 0; proc < r.p.Processors; proc++ {
		go r.worker(proc)
	}
	for s := 0; s < r.p.Streams; s++ {
		go r.arrivalLoop(s, arr[s].proc, arr[s].batch, arr[s].first)
	}
	if evs != nil {
		go r.faultLoop(evs)
	}
	if r.p.Recorder != nil {
		go r.gaugeLoop()
	}
	r.wg.Wait()
}

// arrivalLoop drives one stream: deliver the pending batch under the
// dispatch lock, draw the next gap, sleep it on the virtual clock — the
// same draw-then-deliver cycle as the DES arrival source, on the same
// seed-derived stream, so both backends see identical arrivals. The
// sleeps are keyed (serialized, deterministically ordered at virtual-
// time ties); the first was pre-registered by run() in stream order.
func (r *live) arrivalLoop(stream int, proc traffic.Process, batch int, first chan struct{}) {
	defer r.wg.Done()
	// Until the pre-registered first sleep releases, this source is a
	// sleeper, not a runnable: a run that stops first just unwinds with
	// no exit accounting.
	select {
	case <-first:
	case <-r.clk.stopCh:
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
		if !r.clk.sleepKeyed(d) {
			return
		}
	}
}

// faultLoop plays the deterministic fault plan against the virtual
// clock, applying each event under the dispatch lock.
func (r *live) faultLoop(evs []faults.Event) {
	defer r.wg.Done()
	defer r.clk.exit()
	for _, ev := range evs {
		if !r.clk.sleepUntil(ev.At) {
			return
		}
		r.mu.Lock()
		r.host.Fault(r.clk.Now(), ev)
		r.mu.Unlock()
	}
}

// gaugeLoop publishes the periodic gauges every sim.GaugePeriod; it
// runs only when a recorder is attached, like the DES sampler.
func (r *live) gaugeLoop() {
	defer r.wg.Done()
	defer r.clk.exit()
	for {
		if !r.clk.sleep(sim.GaugePeriod) {
			return
		}
		r.mu.Lock()
		r.host.SampleGauges()
		r.mu.Unlock()
	}
}

// worker is one simulated processor: it parks until a job is handed to
// it, plays out the service interval (and the shared-stack lock's
// critical section, for locked jobs) on the virtual clock, then
// completes the job under the dispatch lock, where the host picks the
// processor's next work.
func (r *live) worker(proc int) {
	defer r.wg.Done()
	defer r.clk.exit()
	for {
		j, ok := parkRecv(r.clk, r.workCh[proc])
		if !ok {
			return
		}
		if !r.clk.sleep(j.Pre) {
			return
		}
		if j.Locked {
			waitStart := r.clk.Now()
			if !r.lockAcquire() {
				return
			}
			r.mu.Lock()
			r.host.LockWaited(r.clk.Now() - waitStart)
			r.mu.Unlock()
			if !r.clk.sleep(j.Crit) {
				return
			}
			r.lockRelease()
		}
		r.mu.Lock()
		r.host.Complete(r.clk.Now(), &j)
		r.mu.Unlock()
	}
}

// lockAcquire takes the virtual shared-stack lock, parking on the clock
// behind earlier requesters; grants are FIFO like des.Resource. Returns
// false when the run stopped while waiting.
func (r *live) lockAcquire() bool {
	r.mu.Lock()
	if !r.lockHeld {
		r.lockHeld = true
		r.mu.Unlock()
		return true
	}
	ch := make(chan struct{}, 1)
	r.lockQ = append(r.lockQ, ch)
	r.mu.Unlock()
	_, ok := parkRecv(r.clk, ch)
	return ok
}

// lockRelease hands the virtual lock to the oldest waiter, or frees it.
func (r *live) lockRelease() {
	r.mu.Lock()
	if len(r.lockQ) > 0 {
		ch := r.lockQ[0]
		r.lockQ = r.lockQ[1:]
		r.clk.wake()
		r.mu.Unlock()
		ch <- struct{}{}
		return
	}
	r.lockHeld = false
	r.mu.Unlock()
}
