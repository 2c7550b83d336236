package sim

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"affinity/internal/core"
	"affinity/internal/des"
	"affinity/internal/obs"
	"affinity/internal/sched"
	"affinity/internal/topo"
	"affinity/internal/traffic"
	"affinity/internal/workload"
)

// Property and metamorphic tests: invariants that must hold for every
// configuration, not just the published experiment points.

// conservationCases sweeps every paradigm/policy pair (the
// AffinitySteal family at a middle and at its pinned point) over light
// and heavy Poisson, batch and Zipf+CBR on/off spec arrivals, on a flat
// and a 2×4 NUMA machine — each point both healthy and degraded
// (failure window, injected loss, bounded queues), since the ledger must
// balance under faults too.
func conservationCases() []Params {
	numa := &topo.Topology{Sockets: 2, CoresPerSocket: 4,
		SameSocketTransient: 1.1, CrossSocketTransient: 1.8}
	arrivals := []func(*Params){
		func(p *Params) { p.Arrival = traffic.Poisson{PacketsPerSec: 800} },
		func(p *Params) { p.Arrival = traffic.Poisson{PacketsPerSec: 3000} },
		func(p *Params) { p.Arrival = traffic.Batch{PacketsPerSec: 1200, MeanBurst: 4} },
		func(p *Params) {
			p.Streams = 0
			p.Workload = &workload.Spec{Classes: []workload.Class{
				{Name: "web", Model: "poisson", Streams: 6, RatePPS: 4000, Zipf: 1.2},
				{Name: "cbr", Model: "cbr", Streams: 2, RatePPS: 300, OnUS: 20000, OffUS: 40000},
			}}
		},
	}
	var ps []Params
	for _, c := range []struct {
		paradigm Paradigm
		policy   sched.Kind
		steal    sched.StealParams
	}{
		{Locking, sched.FCFS, sched.StealParams{}},
		{Locking, sched.MRU, sched.StealParams{}},
		{Locking, sched.ThreadPools, sched.StealParams{}},
		{Locking, sched.WiredStreams, sched.StealParams{}},
		{Locking, sched.RSS, sched.StealParams{}},
		{Locking, sched.FlowDirector, sched.StealParams{}},
		{Locking, sched.AffinitySteal, sched.StealParams{Penalty: 50, DepthThreshold: 2, ColdBias: 0.5}},
		{Locking, sched.AffinitySteal, sched.StealParams{Penalty: math.Inf(1)}},
		{IPS, sched.IPSWired, sched.StealParams{}},
		{IPS, sched.IPSMRU, sched.StealParams{}},
		{IPS, sched.IPSRandom, sched.StealParams{}},
		{Hybrid, sched.IPSWired, sched.StealParams{}},
		{Hybrid, sched.IPSMRU, sched.StealParams{}},
	} {
		for _, arrive := range arrivals {
			for _, tp := range []*topo.Topology{nil, numa} {
				p := quick(c.paradigm, c.policy)
				p.Steal = c.steal
				p.Topology = tp
				p.MeasuredPackets = 2000
				arrive(&p)
				ps = append(ps, p)
				f := p
				f.Faults = downWindow().WithLoss(150*des.Millisecond, 0.02)
				f.MaxQueueDepth = 48
				ps = append(ps, f)
			}
		}
	}
	return ps
}

// TestPacketConservationResults checks, on the public Results surface,
// that no packet is created or lost: every arrival is either completed,
// in service, still queued, or explicitly dropped when the run stops.
// The predicates live in invariants.go and are shared with the live
// backend's differential harness. (sim_test.go holds a white-box twin
// inspecting runner state directly.)
func TestPacketConservationResults(t *testing.T) {
	for i, p := range conservationCases() {
		if err := CheckInvariants(Run(p)); err != nil {
			t.Errorf("case %d: %v", i, err)
		}
	}
}

// TestSeedInvariance checks bit-identical Results for the same
// Params+seed — repeated in-process, and through pools of different
// worker counts (the parallel experiment driver must not perturb runs).
func TestSeedInvariance(t *testing.T) {
	cases := []Params{
		quick(Locking, sched.MRU),
		quick(IPS, sched.IPSWired),
		quick(Hybrid, sched.IPSMRU),
	}
	for _, p := range cases {
		direct := Run(p)
		again := Run(p)
		if !reflect.DeepEqual(direct, again) {
			t.Errorf("%s/%s: repeated Run diverged", direct.Paradigm, direct.Policy)
		}
		for _, workers := range []int{1, 4} {
			got := NewPool(workers).Run(p)
			if !reflect.DeepEqual(direct, got) {
				t.Errorf("%s/%s: Pool(%d) diverged from direct Run\n direct: %+v\n pool:   %+v",
					direct.Paradigm, direct.Policy, workers, direct, got)
			}
		}
	}
}

// flatModel returns a model whose execution time is the same whether
// the cache is warm or cold: t_cold = t_l1cold = t_warm. Under it,
// affinity cannot matter.
func flatModel() *core.Model {
	m := core.NewModel()
	m.Calib = core.Calibration{TWarm: 148.2, TL1Cold: 148.2, TCold: 148.2}
	return m
}

// TestZeroReloadTransientEquivalence is the E8 invariant: with the
// cache-reload transient removed, scheduling for affinity buys nothing —
// MRU and FCFS become the same M/D/m system and their delays coincide.
// Service times are constant and equal, so the departure-time multiset
// is identical under any work-conserving dispatch order; only the
// pairing of arrivals to departures (hence the measured-set boundary)
// can differ, which keeps the means within a fraction of a percent.
func TestZeroReloadTransientEquivalence(t *testing.T) {
	run := func(policy sched.Kind) Results {
		p := quick(Locking, policy)
		p.Model = flatModel()
		p.Arrival = traffic.Poisson{PacketsPerSec: 2000}
		p.MeasuredPackets = 5000
		return Run(p)
	}
	fcfs := run(sched.FCFS)
	mru := run(sched.MRU)

	// Constant service: both policies must charge the identical mean.
	if fcfs.MeanService != mru.MeanService {
		t.Errorf("flat model: MeanService FCFS %v != MRU %v",
			fcfs.MeanService, mru.MeanService)
	}
	relDiff := math.Abs(fcfs.MeanDelay-mru.MeanDelay) /
		math.Max(fcfs.MeanDelay, mru.MeanDelay)
	if relDiff > 0.005 {
		t.Errorf("flat model: MeanDelay FCFS %v vs MRU %v (rel diff %v) — "+
			"affinity must not matter without a reload transient",
			fcfs.MeanDelay, mru.MeanDelay, relDiff)
	}

	// Sanity check the test's own lever: with the real calibration the
	// same configuration must show a clear MRU advantage, so the
	// equivalence above is evidence about the transient, not noise.
	realP := quick(Locking, sched.FCFS)
	realP.Arrival = traffic.Poisson{PacketsPerSec: 2000}
	realP.MeasuredPackets = 5000
	realFCFS := Run(realP)
	realP.Policy = sched.MRU
	realMRU := Run(realP)
	if realMRU.MeanDelay >= realFCFS.MeanDelay {
		t.Errorf("real model: MRU delay %v not below FCFS %v — lever broken",
			realMRU.MeanDelay, realFCFS.MeanDelay)
	}
}

// TestRunnerSteadyStateZeroAllocs pins the tentpole property: with no
// recorder attached, a warmed-up simulation executes events without
// allocating — event nodes, service records and queue slots all come
// from pools.
func TestRunnerSteadyStateZeroAllocs(t *testing.T) {
	for _, c := range []struct {
		name     string
		paradigm Paradigm
		policy   sched.Kind
		stacks   int // > 0: this many streams and stacks at 1500 pkt/s each
	}{
		{"locking-mru", Locking, sched.MRU, 0},
		{"ips-wired", IPS, sched.IPSWired, 0},
		// Twice as many stacks as processors keeps the ready queues busy.
		{"ips-wired-16-stacks", IPS, sched.IPSWired, 16},
		{"ips-random-16-stacks", IPS, sched.IPSRandom, 16},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := quick(c.paradigm, c.policy)
			p.Arrival = traffic.Poisson{PacketsPerSec: 3000}
			if c.stacks > 0 {
				p.Streams, p.Stacks = c.stacks, c.stacks
				p.Arrival = traffic.Poisson{PacketsPerSec: 1500}
			}
			p.MeasuredPackets = 1 << 30 // never stop
			p = p.WithDefaults()
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			r := newRunner(p)
			r.start()
			// Warm up: grow every pool and queue to its working set.
			for i := 0; i < 200_000; i++ {
				if !r.sim.Step() {
					t.Fatal("simulation ran dry during warmup")
				}
			}
			got := testing.AllocsPerRun(50, func() {
				for i := 0; i < 2_000; i++ {
					r.sim.Step()
				}
			})
			if got != 0 {
				t.Errorf("%v allocs per 2000 events in steady state, want 0", got)
			}
		})
	}
}

// TestBacklogMemoryTracksQueue runs E10's saturated capacity probes for
// 1 s of simulated time. The bytes a run allocates must stay near what
// its final backlog occupies: growing a queue may not copy the packets
// already in it or leave its earlier storage behind as garbage. The
// test reads TotalAlloc, so it must not run in parallel.
func TestBacklogMemoryTracksQueue(t *testing.T) {
	const (
		slack     = 1.25    // block rounding and the partly filled tail block
		allowance = 1 << 20 // per-run state that does not scale with the backlog
	)
	for _, c := range []struct {
		paradigm Paradigm
		policy   sched.Kind
	}{
		{Locking, sched.WiredStreams},
		{IPS, sched.IPSWired},
	} {
		p := Params{
			Paradigm: c.paradigm, Policy: c.policy, Streams: 16,
			Arrival: traffic.Poisson{PacketsPerSec: 8000},
			MaxTime: des.Second, MeasuredPackets: 1 << 30, Seed: 1,
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res := Run(p)
		runtime.ReadMemStats(&after)
		backlog := float64(res.QueueAtEnd) * float64(unsafe.Sizeof(sched.Packet{}))
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%v: %d packets queued at the end (%.1f MiB), %.1f MiB allocated",
			c.paradigm, res.QueueAtEnd, backlog/(1<<20), float64(got)/(1<<20))
		if res.QueueAtEnd < 50_000 {
			t.Fatalf("%v: only %d packets queued at the end; the probe no longer saturates", c.paradigm, res.QueueAtEnd)
		}
		if limit := slack*backlog + allowance; float64(got) > limit {
			t.Errorf("%v: run allocated %.1f MiB for a %.1f MiB backlog, want at most %.1f MiB",
				c.paradigm, float64(got)/(1<<20), backlog/(1<<20), limit/(1<<20))
		}
	}
}

// TestRunnerDecisionPathZeroAllocs extends the steady-state pin to the
// decision ledger: with a FlightRecorder attached, every decide call
// (candidate costing, Decision emission, ring capture) must still run
// without allocating — the candidate buffer is scratch and the ring's
// arena is pre-sized.
func TestRunnerDecisionPathZeroAllocs(t *testing.T) {
	for _, c := range []struct {
		name     string
		paradigm Paradigm
		policy   sched.Kind
	}{
		{"locking-mru", Locking, sched.MRU},
		{"ips-wired", IPS, sched.IPSWired},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := quick(c.paradigm, c.policy)
			p.Arrival = traffic.Poisson{PacketsPerSec: 3000}
			p.MeasuredPackets = 1 << 30 // never stop
			p.DecisionRecorder = obs.NewFlightRecorder(0, 0)
			p = p.WithDefaults()
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			r := newRunner(p)
			r.start()
			for i := 0; i < 200_000; i++ {
				if !r.sim.Step() {
					t.Fatal("simulation ran dry during warmup")
				}
			}
			if r.decisions == 0 {
				t.Fatal("no decisions recorded during warmup — the path under test never ran")
			}
			got := testing.AllocsPerRun(50, func() {
				for i := 0; i < 2_000; i++ {
					r.sim.Step()
				}
			})
			if got != 0 {
				t.Errorf("%v allocs per 2000 events with decision ledger, want 0", got)
			}
		})
	}
}
