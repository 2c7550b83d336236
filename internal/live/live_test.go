package live

import (
	"runtime"
	"testing"

	"affinity/internal/des"
	"affinity/internal/faults"
	"affinity/internal/obs"
	"affinity/internal/sched"
	"affinity/internal/sim"
	"affinity/internal/traffic"
	"affinity/internal/workload"
)

func quick(paradigm sim.Paradigm, policy sched.Kind) sim.Params {
	p := sim.Params{
		Paradigm: paradigm, Policy: policy, Streams: 8,
		Arrival:         traffic.Poisson{PacketsPerSec: 2000.0 / 8},
		Seed:            1,
		MeasuredPackets: 2000,
	}
	if paradigm != sim.Locking {
		p.Stacks = 8
	}
	return p
}

// TestLiveInvariantsEveryParadigm runs the live backend across every
// paradigm, a fault window, bounded queues, and injected loss, and
// checks the shared invariants (conservation ledger, affinity
// accounting, cross-field sanity) that both backends must satisfy.
func TestLiveInvariantsEveryParadigm(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*sim.Params)
	}{
		{"locking-fcfs", func(p *sim.Params) { p.Policy = sched.FCFS }},
		{"locking-mru", func(p *sim.Params) {}},
		{"locking-pools", func(p *sim.Params) { p.Policy = sched.ThreadPools }},
		{"locking-wired", func(p *sim.Params) { p.Policy = sched.WiredStreams }},
		{"ips-wired", func(p *sim.Params) { *p = quick(sim.IPS, sched.IPSWired) }},
		{"ips-mru", func(p *sim.Params) { *p = quick(sim.IPS, sched.IPSMRU) }},
		{"hybrid", func(p *sim.Params) { *p = quick(sim.Hybrid, sched.IPSMRU) }},
		{"hot", func(p *sim.Params) { p.Arrival = traffic.Poisson{PacketsPerSec: 4000.0 / 8} }},
		{"faulted", func(p *sim.Params) {
			p.Faults = (&faults.Plan{}).
				Down(250*des.Millisecond, 0).
				Up(400*des.Millisecond, 0).
				WithLoss(220*des.Millisecond, 0.05)
			p.MaxQueueDepth = 16
		}},
		{"burst-fault", func(p *sim.Params) {
			p.Faults = &faults.Plan{Events: []faults.Event{
				{At: 230 * des.Millisecond, Kind: faults.Burst, Stream: -1, Count: 40},
				{At: 260 * des.Millisecond, Kind: faults.Slowdown, Proc: 1, Factor: 2},
			}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := quick(sim.Locking, sched.MRU)
			tc.mut(&p)
			res := Run(p)
			if err := sim.CheckInvariants(res); err != nil {
				t.Error(err)
			}
			if res.CompletedTotal == 0 {
				t.Error("live run completed no packets")
			}
		})
	}
}

// TestLiveMatchesDESArrivals pins the shared-randomness contract: both
// backends build their arrival processes from the same seed-derived
// streams, so the admitted arrival counts are bit-identical even though
// scheduling interleavings are not.
func TestLiveMatchesDESArrivals(t *testing.T) {
	for _, p := range []sim.Params{
		quick(sim.Locking, sched.MRU),
		quick(sim.IPS, sched.IPSWired),
		quick(sim.Hybrid, sched.IPSMRU),
	} {
		d := sim.Run(p)
		l := Run(p)
		if d.Arrivals != l.Arrivals {
			t.Errorf("%s/%s: DES saw %d arrivals, live %d — arrival RNG streams diverged",
				d.Paradigm, d.Policy, d.Arrivals, l.Arrivals)
		}
	}
}

// TestLiveSaturationDetected overloads the machine and expects the
// live backend to flag it, like the DES does.
func TestLiveSaturationDetected(t *testing.T) {
	p := quick(sim.Locking, sched.FCFS)
	p.Arrival = traffic.Poisson{PacketsPerSec: 6000}
	p.MaxTime = 2 * des.Second
	res := Run(p)
	if !res.Saturated {
		t.Errorf("48000 pkt/s offered, Saturated = false (queue at end %d)", res.QueueAtEnd)
	}
	if err := sim.CheckInvariants(res); err != nil {
		t.Error(err)
	}
}

// TestLiveLockWaitObserved checks the virtual shared-stack lock is
// actually contended under Locking at load: lock waits must show up in
// the results like they do in the DES.
func TestLiveLockWaitObserved(t *testing.T) {
	p := quick(sim.Locking, sched.MRU)
	p.Arrival = traffic.Poisson{PacketsPerSec: 4300}
	res := Run(p)
	if res.MeanLockWait <= 0 {
		t.Errorf("MeanLockWait = %v at 34400 pkt/s offered, want > 0", res.MeanLockWait)
	}
}

// TestLiveSteadyStateAllocs is the live counterpart of the DES's
// TestRunnerSteadyStateZeroAllocs: a run makes its goroutines, wake
// slots and queues up front and then hands packets between them without
// allocating, so measuring 100 k more packets costs no more
// allocations. It reads runtime.MemStats, so it must not run in
// parallel.
func TestLiveSteadyStateAllocs(t *testing.T) {
	zipfBurst := &workload.Spec{Name: "zipf-burst-1", Classes: []workload.Class{
		{Name: "flows", Model: "poisson", Streams: 8, RatePPS: 14000, Zipf: 1.0,
			OnUS: 20000, OffUS: 40000}}}
	wired := quick(sim.IPS, sched.IPSWired)
	wired.Streams, wired.Stacks = 16, 16
	wired.Arrival = traffic.Poisson{PacketsPerSec: 1500}
	for _, c := range []struct {
		name string
		p    sim.Params
	}{
		{"locking-mru-zipf-burst", sim.Params{Paradigm: sim.Locking, Policy: sched.MRU,
			Workload: zipfBurst, DataTouch: 10, Seed: 1}},
		{"ips-wired-16-streams", wired},
	} {
		t.Run(c.name, func(t *testing.T) {
			mallocs := func(packets int) uint64 {
				p := c.p
				p.MeasuredPackets = packets
				p.MaxTime = 150 * des.Second
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				res := Run(p)
				runtime.ReadMemStats(&after)
				if res.Saturated {
					t.Fatalf("%d-packet run saturated; its backlog would allocate", packets)
				}
				return after.Mallocs - before.Mallocs
			}
			const small, large = 20_000, 120_000
			a, b := mallocs(small), mallocs(large)
			perPkt := (float64(b) - float64(a)) / (large - small)
			t.Logf("%d allocations at %d packets, %d at %d: %.4f per extra packet", a, small, b, large, perPkt)
			if perPkt >= 0.01 {
				t.Errorf("%.4f allocations per extra packet, want < 0.01", perPkt)
			}
		})
	}
}

// execStarts keeps the first n exec_start events of a run: one per
// scheduling decision.
type execStarts struct {
	n      int
	events []obs.Event
}

func (r *execStarts) Record(e obs.Event) {
	if e.Kind == obs.KindExecStart && len(r.events) < r.n {
		r.events = append(r.events, e)
	}
}

// TestLiveTrace checks the live backend's per-decision view: the first
// exec_start events, read through a Recorder.
func TestLiveTrace(t *testing.T) {
	p := quick(sim.Locking, sched.MRU)
	rec := &execStarts{n: 64}
	p.Recorder = rec
	Run(p)
	if len(rec.events) != 64 {
		t.Fatalf("exec_start events = %d, want 64", len(rec.events))
	}
	for i, e := range rec.events {
		if e.Proc < 0 || e.Proc >= 8 {
			t.Errorf("event %d: processor %d out of range", i, e.Proc)
		}
		if e.Dur <= 0 {
			t.Errorf("event %d: non-positive exec %v", i, e.Dur)
		}
		if i > 0 && e.T < rec.events[i-1].T {
			t.Errorf("event %d: start %v before previous %v", i, e.T, rec.events[i-1].T)
		}
	}
}

// TestLiveRecorderParity attaches a metrics recorder to both backends:
// the live event stream must aggregate to the same arrival, completion
// and drop counters as the DES stream (identical arrivals, conserved
// packets), even though per-event interleavings differ.
func TestLiveRecorderParity(t *testing.T) {
	run := func(backend func(sim.Params) sim.Results) obs.Snapshot {
		p := quick(sim.Locking, sched.MRU)
		p.Faults = (&faults.Plan{}).WithLoss(0, 0.03)
		p.Recorder = obs.NewMetrics()
		res := backend(p)
		if res.Obs == nil {
			t.Fatal("Results.Obs missing with a metrics recorder attached")
		}
		return *res.Obs
	}
	d := run(sim.Run)
	l := run(Run)
	if d.Arrivals != l.Arrivals {
		t.Errorf("recorder arrivals: DES %d, live %d", d.Arrivals, l.Arrivals)
	}
	if d.Drops != l.Drops {
		t.Errorf("recorder drops: DES %d, live %d", d.Drops, l.Drops)
	}
	if l.Completions == 0 {
		t.Error("live recorder saw no completions")
	}
}

// TestLivePanicsOnInvalidParams matches the DES contract: Validate
// failures panic rather than silently running garbage.
func TestLivePanicsOnInvalidParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid Params did not panic")
		}
	}()
	p := quick(sim.IPS, sched.MRU) // MRU is not an IPS policy
	Run(p)
}
