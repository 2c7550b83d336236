package sim

import (
	"math"
	"reflect"
	"testing"

	"affinity/internal/des"
	"affinity/internal/faults"
	"affinity/internal/obs"
	"affinity/internal/sched"
	"affinity/internal/traffic"
)

// faultPolicyCases pairs every paradigm with every applicable policy —
// the degradation paths must hold for all of them, not just the wired
// ones that do interesting re-homing.
var faultPolicyCases = []struct {
	paradigm Paradigm
	policy   sched.Kind
}{
	{Locking, sched.FCFS},
	{Locking, sched.MRU},
	{Locking, sched.ThreadPools},
	{Locking, sched.WiredStreams},
	{IPS, sched.IPSWired},
	{IPS, sched.IPSMRU},
	{IPS, sched.IPSRandom},
	{Hybrid, sched.IPSWired},
	{Hybrid, sched.IPSMRU},
}

// downWindow fails processor 0 from 100 ms to 200 ms — early enough
// that the window closes before a quick run exhausts its packet budget.
func downWindow() *faults.Plan {
	return (&faults.Plan{}).
		Down(100*des.Millisecond, 0).
		Up(200*des.Millisecond, 0)
}

func conserved(t *testing.T, label string, res Results) {
	t.Helper()
	accounted := res.CompletedTotal + uint64(res.InFlightAtEnd) +
		uint64(res.QueueAtEnd) + res.Dropped
	if res.Arrivals != accounted {
		t.Errorf("%s: arrivals %d != completed %d + in-flight %d + queued %d + dropped %d",
			label, res.Arrivals, res.CompletedTotal, res.InFlightAtEnd,
			res.QueueAtEnd, res.Dropped)
	}
}

// A nil plan, an explicitly empty plan, and an explicit zero queue bound
// must all be byte-identical to the historical fault-free run — the
// zero-drift contract the quick-suite golden enforces end to end.
func TestEmptyFaultPlanIsNoOp(t *testing.T) {
	for _, c := range faultPolicyCases {
		base := Run(quick(c.paradigm, c.policy))
		p := quick(c.paradigm, c.policy)
		p.Faults = &faults.Plan{}
		p.MaxQueueDepth = 0
		if got := Run(p); !reflect.DeepEqual(base, got) {
			t.Errorf("%v/%v: empty fault plan changed the run", c.paradigm, c.policy)
		}
	}
}

// Packet conservation with the whole fault vocabulary active: a failure
// window, a slow-down, injected loss, a burst, and bounded queues.
func TestFaultConservationAllPolicies(t *testing.T) {
	for _, c := range faultPolicyCases {
		p := quick(c.paradigm, c.policy)
		p.Faults = downWindow().
			Slow(120*des.Millisecond, 1, 2).
			Slow(160*des.Millisecond, 1, 1).
			WithLoss(130*des.Millisecond, 0.05).
			WithBurst(150*des.Millisecond, -1, 40)
		p.MaxQueueDepth = 64
		res := Run(p)
		label := res.Paradigm + "/" + res.Policy
		conserved(t, label, res)
		if res.CompletedTotal == 0 {
			t.Errorf("%s: no completions under faults", label)
		}
		if res.Dropped == 0 {
			t.Errorf("%s: loss plan produced no drops", label)
		}
		if len(res.PerProcDownTime) != p.WithDefaults().Processors {
			t.Fatalf("%s: PerProcDownTime length %d", label, len(res.PerProcDownTime))
		}
		if got := res.PerProcDownTime[0]; math.Abs(got-100_000) > 1e-6 {
			t.Errorf("%s: proc 0 downtime %v µs, want 100000", label, got)
		}
		if res.PerProcDownTime[1] != 0 {
			t.Errorf("%s: healthy processor shows downtime %v", label, res.PerProcDownTime[1])
		}
	}
}

// A permanent single-processor failure must not strand any stream: the
// wired policies re-home and the run still completes its packet budget.
func TestPermanentFailureNoStranding(t *testing.T) {
	for _, c := range faultPolicyCases {
		p := quick(c.paradigm, c.policy)
		p.Faults = (&faults.Plan{}).Down(300*des.Millisecond, 0)
		res := Run(p)
		label := res.Paradigm + "/" + res.Policy
		conserved(t, label, res)
		if res.Completed != uint64(p.MeasuredPackets) {
			t.Errorf("%s: completed %d of %d measured packets with one processor down",
				label, res.Completed, p.MeasuredPackets)
		}
		if res.PerProcDownTime[0] <= 0 {
			t.Errorf("%s: open down interval not counted", label)
		}
	}
}

// Once every processor has failed, the first one back must serve all
// the queued work, not only the streams whose failback home it is: here
// processor 1 fails last and never recovers, so processor 0 alone
// drains the backlog and the run ends with nothing queued.
func TestFirstRecoveryAfterAllDownDrainsBacklog(t *testing.T) {
	for _, c := range []struct {
		paradigm Paradigm
		policy   sched.Kind
	}{
		{Locking, sched.WiredStreams},
		{Locking, sched.ThreadPools},
		{Locking, sched.RSS},
		{Locking, sched.FlowDirector},
		{IPS, sched.IPSWired},
	} {
		p := Params{
			Paradigm: c.paradigm, Policy: c.policy,
			Processors: 3, Streams: 6,
			Arrival:         traffic.Poisson{PacketsPerSec: 100},
			MeasuredPackets: 3000,
			Seed:            1,
			Faults: (&faults.Plan{}).
				Down(100*des.Millisecond, 2).
				Down(200*des.Millisecond, 0).
				Down(300*des.Millisecond, 1).
				Up(400*des.Millisecond, 0),
		}
		res := Run(p)
		label := res.Paradigm + "/" + res.Policy
		conserved(t, label, res)
		if res.QueueAtEnd != 0 || res.Saturated {
			t.Errorf("%s: %d packets queued at the end (saturated %v) with processor 0 back up",
				label, res.QueueAtEnd, res.Saturated)
		}
	}
}

// Wired-Streams re-homing is visible in the results: the failure window
// forces migrations (packets of re-homed streams complete elsewhere),
// which a fault-free wired run never shows.
func TestWiredStreamsRehomingMigrates(t *testing.T) {
	base := quick(Locking, sched.WiredStreams)
	clean := Run(base)
	if clean.Migrations != 0 {
		t.Fatalf("fault-free Wired-Streams migrated %d times", clean.Migrations)
	}
	p := quick(Locking, sched.WiredStreams)
	p.Faults = downWindow()
	res := Run(p)
	if res.Migrations == 0 {
		t.Error("failure window produced no migrations — re-homing never happened")
	}
	conserved(t, "wired/faulted", res)
}

// A bounded queue under overload turns unbounded backlog into drops:
// the end-of-run queue respects the bound and goodput stays positive.
func TestQueueBoundDropsUnderOverload(t *testing.T) {
	p := quick(Locking, sched.FCFS)
	p.Arrival = traffic.Poisson{PacketsPerSec: 8000} // far past capacity
	p.MaxQueueDepth = 32
	p.MeasuredPackets = 2000
	res := Run(p)
	conserved(t, "bounded-overload", res)
	if res.Dropped == 0 {
		t.Fatal("overloaded bounded queue dropped nothing")
	}
	if res.QueueAtEnd > 32 {
		t.Errorf("QueueAtEnd %d exceeds MaxQueueDepth 32", res.QueueAtEnd)
	}
	if res.DropFraction <= 0 || res.DropFraction >= 1 {
		t.Errorf("DropFraction = %v, want within (0, 1)", res.DropFraction)
	}
	if res.GoodputPPS <= 0 {
		t.Errorf("GoodputPPS = %v, want positive", res.GoodputPPS)
	}

	// IPS: the bound applies per stack queue.
	p = quick(IPS, sched.IPSWired)
	p.Arrival = traffic.Poisson{PacketsPerSec: 8000}
	p.MaxQueueDepth = 8
	p.MeasuredPackets = 2000
	res = Run(p)
	conserved(t, "bounded-ips", res)
	if res.Dropped == 0 {
		t.Fatal("overloaded bounded stack queues dropped nothing")
	}
	if limit := 8 * p.WithDefaults().Stacks; res.QueueAtEnd > limit {
		t.Errorf("IPS QueueAtEnd %d exceeds %d", res.QueueAtEnd, limit)
	}
}

// Injected loss removes close to the configured fraction of arrivals.
func TestInjectedLossFraction(t *testing.T) {
	p := quick(Locking, sched.MRU)
	p.Faults = (&faults.Plan{}).WithLoss(0, 0.3)
	res := Run(p)
	conserved(t, "loss", res)
	if math.Abs(res.DropFraction-0.3) > 0.04 {
		t.Errorf("DropFraction = %v, want ≈ 0.3", res.DropFraction)
	}
}

// A slow-down fault scales charged execution while active.
func TestSlowdownScalesService(t *testing.T) {
	base := quick(Locking, sched.FCFS)
	base.Processors = 2
	base.Streams = 2
	clean := Run(base)
	p := quick(Locking, sched.FCFS)
	p.Processors = 2
	p.Streams = 2
	p.Faults = (&faults.Plan{}).Slow(0, 0, 2).Slow(0, 1, 2)
	res := Run(p)
	ratio := res.MeanService / clean.MeanService
	if ratio < 1.5 {
		t.Errorf("2x slow-down scaled mean service by only %.2f", ratio)
	}
	conserved(t, "slowdown", res)
}

// A burst adds exactly Count extra arrivals per targeted stream —
// arrival processes draw independently of system state, so two runs to
// the same horizon differ by exactly the injected packets.
func TestBurstInjectsExactArrivals(t *testing.T) {
	fixed := func(plan *faults.Plan) Results {
		p := quick(Locking, sched.FCFS)
		p.Streams = 4
		p.MeasuredPackets = 1 << 30 // never stop on count
		p.MaxTime = 2 * des.Second
		p.Faults = plan
		return Run(p)
	}
	clean := fixed(nil)
	all := fixed((&faults.Plan{}).WithBurst(des.Second, -1, 50))
	if got := all.Arrivals - clean.Arrivals; got != 4*50 {
		t.Errorf("broadcast burst added %d arrivals, want 200", got)
	}
	one := fixed((&faults.Plan{}).WithBurst(des.Second, 2, 50))
	if got := one.Arrivals - clean.Arrivals; got != 50 {
		t.Errorf("targeted burst added %d arrivals, want 50", got)
	}
}

// Faulted runs stay deterministic: repeated runs and pools of any
// worker count agree bit-for-bit, and distinct plans get distinct
// cache keys.
func TestFaultRunsDeterministicAndKeyed(t *testing.T) {
	p := quick(IPS, sched.IPSWired)
	p.Faults = downWindow().WithLoss(140*des.Millisecond, 0.02)
	p.MaxQueueDepth = 32
	direct := Run(p)
	if again := Run(p); !reflect.DeepEqual(direct, again) {
		t.Fatal("repeated faulted Run diverged")
	}
	for _, workers := range []int{1, 4} {
		if got := NewPool(workers).Run(p); !reflect.DeepEqual(direct, got) {
			t.Errorf("Pool(%d) diverged on a faulted run", workers)
		}
	}
	kFault, _ := CacheKey(p)
	clean := p
	clean.Faults = nil
	kClean, _ := CacheKey(clean)
	if kFault == kClean {
		t.Error("fault plan not part of the cache key")
	}
	other := p
	other.Faults = downWindow() // no loss event
	if kOther, _ := CacheKey(other); kOther == kFault {
		t.Error("distinct fault plans share a cache key")
	}
}

// Fault transitions and drops surface on the observability stream.
func TestFaultObsEvents(t *testing.T) {
	m := obs.NewMetrics()
	p := quick(Locking, sched.WiredStreams)
	p.Faults = downWindow().WithLoss(0, 0.1)
	p.Recorder = m
	res := Run(p)
	snap := m.Snapshot()
	if snap.ProcDowns != 1 || snap.Counts["proc_up"] != 1 {
		t.Errorf("proc transition counts = %d down / %d up, want 1 / 1",
			snap.ProcDowns, snap.Counts["proc_up"])
	}
	if snap.Drops != res.Dropped || snap.Drops == 0 {
		t.Errorf("recorder drops %d vs results %d", snap.Drops, res.Dropped)
	}
	if math.Abs(snap.DownInterval.Mean-100_000) > 1e-6 || snap.DownInterval.N != 1 {
		t.Errorf("DownInterval = %+v, want one 100000 µs interval", snap.DownInterval)
	}
}
