package sim

import (
	"math"
	"reflect"
	"testing"

	"affinity/internal/core"
	"affinity/internal/des"
	"affinity/internal/obs"
	"affinity/internal/sched"
	"affinity/internal/traffic"
	"affinity/internal/workload"
)

// quick returns parameters for a fast, deterministic run.
func quick(paradigm Paradigm, policy sched.Kind) Params {
	return Params{
		Paradigm:        paradigm,
		Policy:          policy,
		Streams:         8,
		Arrival:         traffic.Poisson{PacketsPerSec: 1000},
		Seed:            42,
		MeasuredPackets: 3000,
	}
}

func bg(v float64) *workload.NonProtocol {
	b := workload.WithIntensity(v)
	return &b
}

func TestRunDeterministic(t *testing.T) {
	a := Run(quick(Locking, sched.MRU))
	b := Run(quick(Locking, sched.MRU))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
}

func TestSeedChangesResults(t *testing.T) {
	a := Run(quick(Locking, sched.MRU))
	p := quick(Locking, sched.MRU)
	p.Seed = 43
	b := Run(p)
	if a.MeanDelay == b.MeanDelay {
		t.Fatal("different seeds produced identical mean delay")
	}
}

func TestCompletesRequestedPackets(t *testing.T) {
	res := Run(quick(Locking, sched.FCFS))
	if res.Completed != 3000 {
		t.Fatalf("Completed = %d, want 3000", res.Completed)
	}
	if res.Saturated {
		t.Fatal("light load flagged saturated")
	}
}

func TestDelayBounds(t *testing.T) {
	for _, cfg := range []struct {
		par Paradigm
		pol sched.Kind
	}{{Locking, sched.FCFS}, {Locking, sched.MRU}, {IPS, sched.IPSWired}} {
		res := Run(quick(cfg.par, cfg.pol))
		warm := core.PaperCalibration().TWarm
		if res.MeanService < warm {
			t.Errorf("%v/%v MeanService %v below TWarm %v", cfg.par, cfg.pol, res.MeanService, warm)
		}
		if res.MeanDelay < res.MeanService {
			t.Errorf("%v/%v MeanDelay %v below MeanService %v", cfg.par, cfg.pol, res.MeanDelay, res.MeanService)
		}
		if res.P95Delay < res.MeanService {
			t.Errorf("%v/%v P95 %v below service %v", cfg.par, cfg.pol, res.P95Delay, res.MeanService)
		}
		if res.MaxDelay < res.P95Delay {
			t.Errorf("%v/%v MaxDelay %v below P95 %v", cfg.par, cfg.pol, res.MaxDelay, res.P95Delay)
		}
		if res.Utilization <= 0 || res.Utilization > 1 {
			t.Errorf("%v/%v Utilization %v outside (0,1]", cfg.par, cfg.pol, res.Utilization)
		}
	}
}

func TestIdleHostWiredStreamsIsFullyWarm(t *testing.T) {
	// V = 0, one stream per processor, Wired-Streams: streams never
	// migrate and nothing displaces them, so after the cold start every
	// service is exactly TWarm + LockOverhead.
	p := quick(Locking, sched.WiredStreams)
	p.Background = bg(0)
	res := Run(p)
	want := core.PaperCalibration().TWarm + 12
	if math.Abs(res.MeanService-want) > 3 {
		t.Fatalf("MeanService = %v, want ≈%v (warm + lock overhead)", res.MeanService, want)
	}
	if res.WarmFraction < 0.95 {
		t.Fatalf("WarmFraction = %v, want ≈1", res.WarmFraction)
	}
}

func TestIdleHostMRUMostlyWarm(t *testing.T) {
	// MRU on the idle host stays mostly warm, but arrival collisions
	// cause occasional migrations that re-cool footprints, so its mean
	// service sits between Wired-Streams (fully warm) and FCFS.
	p := quick(Locking, sched.MRU)
	p.Background = bg(0)
	mru := Run(p)
	p.Policy = sched.FCFS
	fcfs := Run(p)
	warm := core.PaperCalibration().TWarm + 12
	if mru.MeanService < warm-1 {
		t.Fatalf("MRU service %v below the warm floor %v", mru.MeanService, warm)
	}
	if mru.MeanService >= fcfs.MeanService {
		t.Fatalf("MRU service %v not below FCFS service %v", mru.MeanService, fcfs.MeanService)
	}
	if mru.WarmFraction < 0.6 {
		t.Fatalf("MRU WarmFraction = %v, want mostly warm", mru.WarmFraction)
	}
}

func TestIdleHostIPSWiredIsFullyWarm(t *testing.T) {
	p := quick(IPS, sched.IPSWired)
	p.Background = bg(0)
	res := Run(p)
	want := core.PaperCalibration().TWarm
	if math.Abs(res.MeanService-want) > 3 {
		t.Fatalf("MeanService = %v, want ≈TWarm %v", res.MeanService, want)
	}
	if res.Migrations != 0 {
		t.Fatalf("wired stacks migrated %d times", res.Migrations)
	}
}

func TestBackgroundIntensityDegradesService(t *testing.T) {
	p := quick(Locking, sched.MRU)
	p.Background = bg(0)
	idle := Run(p)
	p.Background = bg(1)
	loaded := Run(p)
	if loaded.MeanService <= idle.MeanService {
		t.Fatalf("V=1 service %v not above V=0 service %v", loaded.MeanService, idle.MeanService)
	}
}

func TestAffinityBeatsFCFS(t *testing.T) {
	// The headline result: MRU scheduling reduces delay vs FCFS under
	// Locking at moderate load.
	p := quick(Locking, sched.FCFS)
	p.Arrival = traffic.Poisson{PacketsPerSec: 2000}
	fcfs := Run(p)
	p.Policy = sched.MRU
	mru := Run(p)
	if mru.MeanDelay >= fcfs.MeanDelay {
		t.Fatalf("MRU delay %v not below FCFS delay %v", mru.MeanDelay, fcfs.MeanDelay)
	}
}

func TestIPSOutperformsLockingInLatencyAndCapacity(t *testing.T) {
	// Abstract: "IPS delivers much lower message latency and
	// significantly higher message throughput capacity."
	lp := quick(Locking, sched.MRU)
	lp.Streams = 16
	lp.Arrival = traffic.Poisson{PacketsPerSec: 1500}
	locking := Run(lp)
	ip := quick(IPS, sched.IPSWired)
	ip.Streams = 16
	ip.Arrival = traffic.Poisson{PacketsPerSec: 1500}
	ips := Run(ip)
	if ips.MeanDelay >= locking.MeanDelay {
		t.Fatalf("IPS delay %v not below Locking delay %v", ips.MeanDelay, locking.MeanDelay)
	}

	// Capacity: drive both to saturation and compare throughput.
	lp.Arrival = traffic.Poisson{PacketsPerSec: 6000}
	lp.MaxTime = 5 * des.Second
	lp.MeasuredPackets = 1 << 30
	ip.Arrival = traffic.Poisson{PacketsPerSec: 6000}
	ip.MaxTime = 5 * des.Second
	ip.MeasuredPackets = 1 << 30
	lsat := Run(lp)
	isat := Run(ip)
	if isat.Throughput < 1.2*lsat.Throughput {
		t.Fatalf("IPS capacity %v not ≫ Locking capacity %v", isat.Throughput, lsat.Throughput)
	}
}

func TestLockContentionCapsLockingThroughput(t *testing.T) {
	p := quick(Locking, sched.MRU)
	p.Streams = 16
	p.Arrival = traffic.Poisson{PacketsPerSec: 6000}
	p.MaxTime = 5 * des.Second
	p.MeasuredPackets = 1 << 30
	res := Run(p)
	if !res.Saturated {
		t.Fatal("over-capacity load not flagged saturated")
	}
	if res.MeanLockWait <= 0 {
		t.Fatal("saturated Locking run shows no lock contention")
	}
	// The crude analytic cap: 1/(critFrac · warm exec).
	cap := 1e6 / (0.15 * core.PaperCalibration().TWarm)
	if res.Throughput > cap*1.15 {
		t.Fatalf("throughput %v exceeds lock-imposed cap %v", res.Throughput, cap)
	}
}

func TestIPSHasNoLockWait(t *testing.T) {
	res := Run(quick(IPS, sched.IPSMRU))
	if res.MeanLockWait != 0 {
		t.Fatalf("IPS MeanLockWait = %v, want 0", res.MeanLockWait)
	}
}

func TestWiredPoliciesNeverMigrate(t *testing.T) {
	p := quick(Locking, sched.WiredStreams)
	p.Arrival = traffic.Poisson{PacketsPerSec: 2500}
	if res := Run(p); res.Migrations != 0 {
		t.Fatalf("WiredStreams migrated %d times", res.Migrations)
	}
	q := quick(IPS, sched.IPSWired)
	q.Streams = 16
	q.Stacks = 16
	q.Arrival = traffic.Poisson{PacketsPerSec: 2500}
	if res := Run(q); res.Migrations != 0 {
		t.Fatalf("IPSWired migrated %d times", res.Migrations)
	}
}

func TestSingleStreamIPSCapacityIsOneProcessor(t *testing.T) {
	// "IPS … exhibits limited intra-stream scalability": one stream is
	// bound to one stack, so its throughput caps at 1/TWarm regardless
	// of the 8 available processors.
	p := quick(IPS, sched.IPSWired)
	p.Streams = 1
	p.Stacks = 1
	p.Arrival = traffic.Poisson{PacketsPerSec: 20000}
	p.MaxTime = 5 * des.Second
	p.MeasuredPackets = 1 << 30
	res := Run(p)
	cap := 1e6 / core.PaperCalibration().TWarm // ≈ 6.7k pkts/s
	if res.Throughput > cap*1.05 {
		t.Fatalf("single-stream IPS throughput %v exceeds one-processor cap %v", res.Throughput, cap)
	}
	if !res.Saturated {
		t.Fatal("overloaded single stack not flagged saturated")
	}
}

func TestSingleStreamLockingScalesAcrossProcessors(t *testing.T) {
	p := quick(Locking, sched.FCFS)
	p.Streams = 1
	p.Arrival = traffic.Poisson{PacketsPerSec: 20000}
	p.MaxTime = 5 * des.Second
	p.MeasuredPackets = 1 << 30
	res := Run(p)
	ipsCap := 1e6 / core.PaperCalibration().TWarm
	if res.Throughput < 1.5*ipsCap {
		t.Fatalf("Locking single-stream throughput %v does not scale past one processor (%v)",
			res.Throughput, ipsCap)
	}
}

func TestBurstinessHurtsIPSMoreThanLocking(t *testing.T) {
	// "IPS … exhibits less robust response to intra-stream burstiness."
	delay := func(par Paradigm, pol sched.Kind, burst float64) float64 {
		p := quick(par, pol)
		p.Arrival = traffic.Batch{PacketsPerSec: 1000, MeanBurst: burst}
		return Run(p).MeanDelay
	}
	lockGrowth := delay(Locking, sched.MRU, 16) / delay(Locking, sched.MRU, 1)
	ipsGrowth := delay(IPS, sched.IPSWired, 16) / delay(IPS, sched.IPSWired, 1)
	if ipsGrowth <= lockGrowth {
		t.Fatalf("burst growth: IPS %.2fx not above Locking %.2fx", ipsGrowth, lockGrowth)
	}
}

func TestDataTouchAddsToService(t *testing.T) {
	base := Run(quick(IPS, sched.IPSWired))
	p := quick(IPS, sched.IPSWired)
	p.DataTouch = 139 // checksumming the largest FDDI packet
	touched := Run(p)
	// The increase is slightly below the fixed 139 µs: longer busy
	// periods shrink the idle windows in which the background workload
	// displaces the footprint, so the cache-dependent part shrinks.
	got := touched.MeanService - base.MeanService
	if got < 120 || got > 145 {
		t.Fatalf("data-touch service increase = %v, want ≈139 (within [120, 145])", got)
	}
}

func TestSaturationFlag(t *testing.T) {
	p := quick(Locking, sched.FCFS)
	p.Arrival = traffic.Poisson{PacketsPerSec: 10000}
	p.MaxTime = 3 * des.Second
	res := Run(p)
	if !res.Saturated {
		t.Fatal("grossly overloaded run not flagged saturated")
	}
	if res.QueueAtEnd == 0 {
		t.Fatal("saturated run reports empty queue")
	}
}

func TestColdStartsCounted(t *testing.T) {
	res := Run(quick(Locking, sched.MRU))
	if res.ColdStarts == 0 {
		t.Fatal("no cold starts recorded")
	}
	// Each (entity, processor) pair can go cold at most once.
	if res.ColdStarts > 8*8 {
		t.Fatalf("ColdStarts = %d exceeds streams × processors", res.ColdStarts)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.Policy = sched.IPSWired },                          // IPS policy under Locking
		func(p *Params) { p.Paradigm = IPS; p.Policy = sched.MRU },             // Locking policy under IPS
		func(p *Params) { p.LockCritFrac = 1.5 },                               //
		func(p *Params) { p.CodeSharedFrac = -0.1 },                            //
		func(p *Params) { p.DataTouch = -1 },                                   //
		func(p *Params) { p.Background = &workload.NonProtocol{Intensity: 2} }, //
		// NaN passes every ordinary range comparison; ±Inf would
		// become an event time.
		func(p *Params) { p.LockCritFrac = math.NaN() },
		func(p *Params) { p.CodeSharedFrac = math.NaN() },
		func(p *Params) { p.DataTouch = math.NaN() },
		func(p *Params) { p.DataTouch = math.Inf(1) },
		func(p *Params) { p.LockOverhead = math.NaN() },
		func(p *Params) { p.LockOverhead = math.Inf(1) },
		func(p *Params) { p.Background = &workload.NonProtocol{Intensity: math.NaN()} },
		// A measurement window that cannot measure: a NaN or infinite
		// warmup measures no packet, a NaN horizon never ends the run,
		// a negative one ends it before it starts, and a negative
		// packet target stops it at the first measured packet.
		func(p *Params) { p.Warmup = des.Time(math.NaN()) },
		func(p *Params) { p.Warmup = des.Time(math.Inf(1)) },
		func(p *Params) { p.Warmup = -des.Millisecond },
		func(p *Params) { p.MaxTime = des.Time(math.NaN()) },
		func(p *Params) { p.MaxTime = -des.Second },
		func(p *Params) { p.MaxTime = 0 },
		func(p *Params) { p.MeasuredPackets = -5 },
	}
	for i, mutate := range bad {
		p := quick(Locking, sched.FCFS).WithDefaults()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestEntityMapping(t *testing.T) {
	p := Params{Paradigm: IPS, Streams: 10, Stacks: 4}
	if p.entityCount() != 4 {
		t.Fatalf("entityCount = %d, want 4", p.entityCount())
	}
	if p.entityOf(6) != 2 {
		t.Fatalf("entityOf(6) = %d, want 2", p.entityOf(6))
	}
	q := Params{Paradigm: Locking, Streams: 10}
	if q.entityCount() != 10 || q.entityOf(7) != 7 {
		t.Fatal("Locking entity mapping wrong")
	}
}

func TestParadigmString(t *testing.T) {
	if Locking.String() != "Locking" || IPS.String() != "IPS" {
		t.Fatal("paradigm strings wrong")
	}
	if Paradigm(9).String() == "" {
		t.Fatal("unknown paradigm empty string")
	}
}

func TestWithDefaultsFillsEverything(t *testing.T) {
	p := Params{Paradigm: IPS, Policy: sched.IPSWired}.WithDefaults()
	if p.Model == nil || p.Processors != 8 || p.Streams != 8 || p.Stacks != 8 {
		t.Fatalf("defaults incomplete: %+v", p)
	}
	if p.Background == nil || p.Background.Intensity != 1 {
		t.Fatal("default background missing")
	}
	if p.Arrival == nil || p.MeasuredPackets == 0 {
		t.Fatal("measurement defaults missing")
	}
	// Locking defaults must not leak into IPS.
	if p.LockOverhead != 0 {
		t.Fatal("IPS run acquired lock overhead")
	}
}

func TestThroughputMatchesOfferedBelowSaturation(t *testing.T) {
	res := Run(quick(Locking, sched.MRU))
	if math.Abs(res.Throughput-res.OfferedRate)/res.OfferedRate > 0.1 {
		t.Fatalf("throughput %v far from offered %v below saturation", res.Throughput, res.OfferedRate)
	}
}

func TestPacketConservation(t *testing.T) {
	// Every arrival is either completed, waiting, or in service when the
	// run stops: total completions (measured + warm-up) + queued +
	// in-service must equal arrivals. In-service packets equal the number
	// of busy processors... which we bound by Processors.
	for _, cfg := range []struct {
		par Paradigm
		pol sched.Kind
	}{{Locking, sched.MRU}, {IPS, sched.IPSWired}, {Hybrid, sched.IPSWired}} {
		p := quick(cfg.par, cfg.pol)
		p.Arrival = traffic.Poisson{PacketsPerSec: 3000} // keep queues busy
		r := newRunner(p.WithDefaults())
		r.start()
		r.sim.RunUntil(p.WithDefaults().MaxTime)
		completed := r.service.N()
		queued := uint64(r.queuedPackets())
		inService := uint64(0)
		for i := range r.procs {
			if r.procs[i].busy {
				inService++
			}
		}
		total := completed + queued + inService
		if total != r.arrivals {
			t.Errorf("%v/%v: completed %d + queued %d + in-service %d = %d, arrivals %d",
				cfg.par, cfg.pol, completed, queued, inService, total, r.arrivals)
		}
	}
}

func TestHeterogeneousStreams(t *testing.T) {
	// One heavy stream and seven light ones. Wired-Streams pins the
	// heavy stream (and whatever shares its processor) to one CPU;
	// work-conserving policies absorb the imbalance.
	specs := make([]traffic.Spec, 8)
	specs[0] = traffic.Poisson{PacketsPerSec: 9000}
	for i := 1; i < 8; i++ {
		specs[i] = traffic.Poisson{PacketsPerSec: 700}
	}
	mk := func(pol sched.Kind) Results {
		return Run(Params{
			Paradigm: Locking, Policy: pol, Streams: 8,
			ArrivalPerStream: specs,
			Seed:             9, MeasuredPackets: 4000,
		})
	}
	wired := mk(sched.WiredStreams)
	pools := mk(sched.ThreadPools)
	if !wired.Saturated && wired.MeanDelay < 2*pools.MeanDelay {
		t.Fatalf("wired should struggle with a 9k pkt/s stream on one CPU: wired %v pools %v",
			wired.MeanDelay, pools.MeanDelay)
	}
	if pools.Saturated {
		t.Fatalf("work-stealing pools saturated on a feasible aggregate load: %+v", pools)
	}
	// Offered rate must reflect the heterogeneous sum.
	want := 9000.0 + 7*700
	if math.Abs(pools.OfferedRate-want) > 1 {
		t.Fatalf("OfferedRate = %v, want %v", pools.OfferedRate, want)
	}
}

func TestArrivalPerStreamValidation(t *testing.T) {
	p := quick(Locking, sched.MRU)
	p.ArrivalPerStream = []traffic.Spec{traffic.Poisson{PacketsPerSec: 100}} // wrong length
	p = p.WithDefaults()
	if err := p.Validate(); err == nil {
		t.Fatal("mismatched per-stream spec count accepted")
	}
}

func TestPerStreamDelayAndFairness(t *testing.T) {
	res := Run(quick(Locking, sched.MRU))
	if len(res.PerStreamDelay) != 8 {
		t.Fatalf("PerStreamDelay entries = %d, want 8", len(res.PerStreamDelay))
	}
	for i, d := range res.PerStreamDelay {
		if d <= 0 {
			t.Fatalf("stream %d mean delay %v", i, d)
		}
	}
	// Homogeneous streams under a symmetric policy: near-perfect fairness.
	if res.DelayFairness < 0.95 || res.DelayFairness > 1.0+1e-9 {
		t.Fatalf("DelayFairness = %v, want ≈1 for symmetric load", res.DelayFairness)
	}
}

func TestFairnessDropsUnderHeterogeneousWiredLoad(t *testing.T) {
	specs := make([]traffic.Spec, 8)
	specs[0] = traffic.Poisson{PacketsPerSec: 5500}
	for i := 1; i < 8; i++ {
		specs[i] = traffic.Poisson{PacketsPerSec: 700}
	}
	wired := Run(Params{
		Paradigm: Locking, Policy: sched.WiredStreams, Streams: 8,
		ArrivalPerStream: specs, Seed: 9, MeasuredPackets: 4000,
	})
	pools := Run(Params{
		Paradigm: Locking, Policy: sched.ThreadPools, Streams: 8,
		ArrivalPerStream: specs, Seed: 9, MeasuredPackets: 4000,
	})
	if wired.DelayFairness >= pools.DelayFairness {
		t.Fatalf("wired fairness %v not below work-stealing %v under skew",
			wired.DelayFairness, pools.DelayFairness)
	}
}

func TestJainIndexProperties(t *testing.T) {
	if got := JainIndex([]float64{5, 5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("equal delays index = %v, want 1", got)
	}
	if got := JainIndex([]float64{100, 0, 0, 0}); math.Abs(got-1) > 1e-12 {
		t.Fatal("zero entries must be excluded")
	}
	skewed := JainIndex([]float64{1000, 1, 1, 1})
	if skewed >= 0.5 {
		t.Fatalf("skewed index = %v, want well below 1", skewed)
	}
	if JainIndex(nil) != 0 {
		t.Fatal("empty index must be 0")
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

func TestTraceRecordsDecisions(t *testing.T) {
	p := quick(Locking, sched.MRU)
	rec := &execStarts{n: 50}
	p.Recorder = rec
	Run(p)
	if len(rec.events) != 50 {
		t.Fatalf("exec_start events = %d, want 50", len(rec.events))
	}
	coldSeen := false
	for i, e := range rec.events {
		if e.Proc < 0 || e.Proc >= 8 || e.Stream < 0 || e.Stream >= 8 {
			t.Fatalf("event %d out of range: %+v", i, e)
		}
		if e.Dur < core.PaperCalibration().TWarm-1 {
			t.Fatalf("event %d exec %v below warm floor", i, e.Dur)
		}
		if i > 0 && e.T < rec.events[i-1].T {
			t.Fatalf("exec_start events not time-ordered at %d", i)
		}
		if math.IsInf(e.Val, 1) {
			coldSeen = true
		}
	}
	if !coldSeen {
		t.Fatal("early exec_start events should contain cold starts")
	}
}

func TestRunManyMatchesSequential(t *testing.T) {
	var params []Params
	for i := 0; i < 6; i++ {
		p := quick(Locking, sched.MRU)
		p.Seed = int64(100 + i)
		p.MeasuredPackets = 1500
		params = append(params, p)
	}
	parallel := NewPool(4).RunAll(params)
	for i, p := range params {
		seq := Run(p)
		if !reflect.DeepEqual(parallel[i], seq) {
			t.Fatalf("run %d differs between parallel and sequential execution", i)
		}
	}
}

func TestRunManyWorkerClamping(t *testing.T) {
	params := []Params{quick(IPS, sched.IPSWired)}
	params[0].MeasuredPackets = 500
	res := NewPool(64).RunAll(params) // more workers than work
	if len(res) != 1 || res[0].Completed != 500 {
		t.Fatalf("results = %+v", res)
	}
	res = NewPool(0).RunAll(params) // GOMAXPROCS default
	if res[0].Completed != 500 {
		t.Fatal("default-worker run failed")
	}
}
