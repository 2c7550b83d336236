package sim

import (
	"affinity/internal/des"
	"affinity/internal/faults"
	"affinity/internal/traffic"
)

// runner is the discrete-event backend: the host core (host.go) under
// the DES clock. Each arrival stream and each processor is a des.Timer,
// an event source with at most one firing pending; fault events and
// gauge samples are one-shot heap events; the shared-stack lock is a
// des.Resource.
//
// The event loop is allocation-free in steady state: timers are made
// once at start, one-shot event nodes are pooled inside des.Simulator,
// and a processor's service state is its server record plus the host's
// Job slot, read by pointer through non-capturing des.ArgHandler
// functions (no per-packet closures or copies).
// TestRunnerSteadyStateZeroAllocs pins the disabled-recorder path at
// zero allocations per event.
type runner struct {
	*Host
	sim  *des.Simulator
	lock *des.Resource // Locking & Hybrid: the shared-stack lock

	sources  []arrivalSource // one per stream
	servers  []server        // one per processor
	faultEvs []faultEvent
}

func newRunner(p Params) *runner {
	r := &runner{sim: des.NewSimulator()}
	r.Host = NewHost(p, r)
	if p.Paradigm != IPS {
		r.lock = des.NewResource(1)
	}
	return r
}

// The runner is the host's Clock.
func (r *runner) Now() des.Time { return r.sim.Now() }
func (r *runner) Stop()         { r.sim.Stop() }
func (r *runner) Pending() int  { return r.sim.Pending() }
func (r *runner) Fired() uint64 { return r.sim.Fired() }
func (r *runner) Serve(j *Job)  { r.sim.Arm(r.servers[j.Proc].t, j.Pre) }

// arrivalSource drives one stream's arrival process from its timer.
type arrivalSource struct {
	r       *runner
	t       *des.Timer
	stream  int
	proc    traffic.Process
	pending int
}

// arrivalFire delivers the batch drawn on the previous tick, then draws
// the next one and re-arms the stream's timer.
func arrivalFire(a any) {
	src := a.(*arrivalSource)
	r := src.r
	now := r.sim.Now()
	for j := 0; j < src.pending; j++ {
		r.Arrive(now, src.stream)
	}
	d, b := src.proc.Next()
	src.pending = b
	r.sim.Arm(src.t, d)
}

// gaugeSample publishes the periodic gauges and reschedules itself.
func gaugeSample(a any) {
	r := a.(*runner)
	r.SampleGauges()
	r.sim.ScheduleArg(GaugePeriod, gaugeSample, r)
}

// faultEvent binds one plan event to its runner so the DES can fire it
// through a non-capturing handler.
type faultEvent struct {
	r  *runner
	ev faults.Event
}

func faultFire(a any) {
	fe := a.(*faultEvent)
	fe.r.Fault(fe.r.sim.Now(), fe.ev)
}

// start makes every timer, then schedules the fault plan, the periodic
// gauge sampler when a recorder is attached, and every stream's first
// arrival, in stream order.
func (r *runner) start() {
	r.servers = make([]server, r.p.Processors)
	for i := range r.servers {
		sv := &r.servers[i]
		sv.r, sv.job = r, r.Job(i)
		sv.t = r.sim.NewTimer(serverFire, sv)
	}
	r.sources = make([]arrivalSource, r.p.Streams)
	for s := range r.sources {
		src := &r.sources[s]
		src.r, src.stream = r, s
		src.t = r.sim.NewTimer(arrivalFire, src)
	}
	if !r.p.Faults.Empty() {
		evs := r.p.Faults.Sorted()
		r.faultEvs = make([]faultEvent, len(evs))
		for i := range evs {
			fe := &r.faultEvs[i]
			fe.r, fe.ev = r, evs[i]
			r.sim.ScheduleArgAt(evs[i].At, faultFire, fe)
		}
	}
	if r.p.Recorder != nil {
		r.sim.ScheduleArg(GaugePeriod, gaugeSample, r)
	}
	for s := range r.sources {
		src := &r.sources[s]
		src.proc = r.ArrivalProcess(s)
		d, b := src.proc.Next()
		src.pending = b
		r.sim.Arm(src.t, d)
	}
}

// server plays one processor's jobs out on its timer. The timer ends
// Pre; a Locked job then queues for the shared-stack lock, and the
// grant arms the timer again for Crit.
type server struct {
	r         *runner
	t         *des.Timer
	job       *Job     // the host's job slot for this processor
	holding   bool     // the timer is timing the critical section
	requested des.Time // lock-wait start (locked path)
}

// serverFire ends the processor's current interval: an unlocked job's
// service, a locked job's non-critical section (it then requests the
// lock), or its critical section (it then releases the lock). A
// finished job goes back to the host, whose continuation may start the
// next one at once and so re-arm this timer.
func serverFire(a any) {
	sv := a.(*server)
	r, j := sv.r, sv.job
	if j.Locked {
		if !sv.holding {
			sv.requested = r.sim.Now()
			r.lock.AcquireArg(serverLockGranted, sv)
			return
		}
		sv.holding = false
		r.lock.Release()
	}
	r.Complete(r.sim.Now(), j)
}

// serverLockGranted runs when the lock is granted, inside the request or
// inside another processor's release: record the spin wait and time the
// critical section.
func serverLockGranted(a any) {
	sv := a.(*server)
	r := sv.r
	sv.holding = true
	r.LockWaited(r.sim.Now() - sv.requested)
	r.sim.Arm(sv.t, sv.job.Crit)
}
