package sim

import (
	"affinity/internal/des"
	"affinity/internal/faults"
	"affinity/internal/traffic"
)

// runner is the discrete-event backend: the host core (host.go) under
// the DES clock. Arrivals, fault events, gauge samples and service
// intervals are heap events; the shared-stack lock is a des.Resource.
//
// The event loop is allocation-free in steady state: DES event nodes
// are pooled inside des.Simulator, and per-packet service state lives
// in pooled svc records scheduled through non-capturing des.ArgHandler
// functions (no per-packet closures). TestRunnerSteadyStateZeroAllocs
// pins the disabled-recorder path at zero allocations per event.
type runner struct {
	*Host
	sim  *des.Simulator
	lock *des.Resource // Locking & Hybrid: the shared-stack lock

	sources  []arrivalSource // one per stream, scheduled by pointer
	svcFree  []*svc          // recycled per-packet service records
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
func (r *runner) Serve(j Job) {
	sv := r.acquireSvc()
	sv.job = j
	if j.Locked {
		r.sim.ScheduleArg(j.Pre, svcLockRequest, sv)
		return
	}
	r.sim.ScheduleArg(j.Pre, svcFinish, sv)
}

// arrivalSource drives one stream's arrival process; it is scheduled by
// pointer through arrivalFire so per-arrival rescheduling allocates
// nothing.
type arrivalSource struct {
	r       *runner
	stream  int
	proc    traffic.Process
	pending int
}

// arrivalFire delivers the batch drawn on the previous tick, then draws
// and schedules the next one.
func arrivalFire(a any) {
	src := a.(*arrivalSource)
	r := src.r
	now := r.sim.Now()
	for j := 0; j < src.pending; j++ {
		r.Arrive(now, src.stream)
	}
	d, b := src.proc.Next()
	src.pending = b
	r.sim.ScheduleArg(d, arrivalFire, src)
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

// start schedules every stream's arrival process, the fault plan and,
// when a recorder is attached, the periodic gauge sampler.
func (r *runner) start() {
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
	r.sources = make([]arrivalSource, r.p.Streams)
	for s := 0; s < r.p.Streams; s++ {
		src := &r.sources[s]
		src.r, src.stream = r, s
		src.proc = r.ArrivalProcess(s)
		d, b := src.proc.Next()
		src.pending = b
		r.sim.ScheduleArg(d, arrivalFire, src)
	}
}

// svc is the pooled per-packet service record: the Job plus the lock
// request instant, threaded through the DES by pointer.
type svc struct {
	r         *runner
	job       Job
	requested des.Time // lock-wait start (locked path)
}

func (r *runner) acquireSvc() *svc {
	if n := len(r.svcFree); n > 0 {
		s := r.svcFree[n-1]
		r.svcFree[n-1] = nil
		r.svcFree = r.svcFree[:n-1]
		return s
	}
	return &svc{r: r}
}

// svcFinish recycles the record and hands the finished job back to the
// host, whose continuation may start the next service at once (reusing
// the record just freed).
func svcFinish(a any) {
	s := a.(*svc)
	r, j := s.r, s.job
	r.svcFree = append(r.svcFree, s)
	r.Complete(r.sim.Now(), &j)
}

// svcLockRequest ends the non-critical section and queues for the
// shared-stack lock.
func svcLockRequest(a any) {
	s := a.(*svc)
	s.requested = s.r.sim.Now()
	s.r.lock.AcquireArg(svcLockGranted, s)
}

// svcLockGranted runs when the lock is granted: record the spin wait and
// schedule the critical section.
func svcLockGranted(a any) {
	s := a.(*svc)
	r := s.r
	r.LockWaited(r.sim.Now() - s.requested)
	r.sim.ScheduleArg(s.job.Crit, svcLockDone, s)
}

// svcLockDone releases the lock and completes the locked service.
func svcLockDone(a any) {
	s := a.(*svc)
	s.r.lock.Release()
	svcFinish(s)
}
