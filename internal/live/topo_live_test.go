package live_test

import (
	"reflect"
	"testing"

	"affinity/internal/live"
	"affinity/internal/sched"
	"affinity/internal/sim"
	"affinity/internal/topo"
	"affinity/internal/traffic"
)

// The live-backend halves of the topology and hash-dispatch property
// suite: the same equivalences the DES pins in internal/sim
// (topo_test.go) must hold on the goroutine engine, and the E34
// semantic claim — Flow Director reorders, RSS cannot — must come out
// of both backends, not just the one that produced the goldens.

// unbrand clears the policy name so runs that should make identical
// decisions under different labels compare with DeepEqual.
func unbrand(r sim.Results) sim.Results {
	r.Policy = ""
	return r
}

func TestLiveFlatTopologyIsNoOp(t *testing.T) {
	flat, err := topo.Parse("1x8")
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []sched.Kind{sched.FCFS, sched.MRU, sched.WiredStreams} {
		p := sim.Params{
			Paradigm: sim.Locking, Policy: policy, Streams: 8, Processors: 8,
			Arrival:         traffic.Poisson{PacketsPerSec: 1000},
			Seed:            42,
			MeasuredPackets: 1500,
		}
		base := live.Run(p)
		for name, tp := range map[string]*topo.Topology{
			"flat":      flat,
			"numa-unit": {Sockets: 2, CoresPerSocket: 4, SameSocketTransient: 1, CrossSocketTransient: 1},
		} {
			p2 := p
			p2.Topology = tp
			if got := live.Run(p2); !reflect.DeepEqual(base, got) {
				t.Errorf("%s: %s topology changed live results — must be a no-op", policy, name)
			}
		}
	}
}

// TestLiveRSSIdentityEqualsWiredStreams mirrors the DES anchor: with an
// identity hash and constant-gap arrivals the RSS table reproduces
// Wired-Streams' first-seen round-robin homes. Unlike the DES — whose
// heap breaks same-instant ties deterministically — the live backend's
// worker interleaving decides which tied first arrival Wired-Streams
// sees first, so each stream gets its own CBR rate (descending primes)
// to keep every first arrival at a distinct instant and in stream
// order. That pins first-seen order = stream order = the identity
// table's s mod n, and the equivalence holds bit for bit.
func TestLiveRSSIdentityEqualsWiredStreams(t *testing.T) {
	rates := []float64{2003, 1999, 1997, 1993, 1987, 1979, 1973, 1951}
	per := make([]traffic.Spec, len(rates))
	for s, rate := range rates {
		per[s] = traffic.Deterministic{PacketsPerSec: rate}
	}
	base := sim.Params{
		Paradigm: sim.Locking, Streams: 8, Processors: 4,
		ArrivalPerStream: per,
		Seed:             42,
		MeasuredPackets:  1500,
	}
	rss := base
	rss.Policy = sched.RSS
	rss = sim.WithHashIdentity(rss)
	wired := base
	wired.Policy = sched.WiredStreams
	a, b := live.Run(rss), live.Run(wired)
	if a.ReorderedTotal != 0 {
		t.Errorf("live RSS reordered %d packets — static homes can never reorder a stream", a.ReorderedTotal)
	}
	if !reflect.DeepEqual(unbrand(a), unbrand(b)) {
		t.Errorf("identity-hash RSS diverged from Wired-Streams on the live backend\n rss:   %+v\n wired: %+v", a, b)
	}
}

func TestLiveFlowDirectorDisabledEqualsRSS(t *testing.T) {
	base := sim.Params{
		Paradigm: sim.Locking, Policy: sched.RSS, Streams: 8, Processors: 4,
		Arrival:         traffic.Batch{PacketsPerSec: 2500, MeanBurst: 16},
		Seed:            42,
		MeasuredPackets: 1500,
	}
	fd := base
	fd.Policy = sched.FlowDirector
	fd.FDRebalance = -1
	a, b := live.Run(fd), live.Run(base)
	if !reflect.DeepEqual(unbrand(a), unbrand(b)) {
		t.Errorf("rebalance-disabled Flow Director diverged from RSS on the live backend\n fd:  %+v\n rss: %+v", a, b)
	}
}

// TestDifferentialReorderingAgreement is the cross-backend half of the
// E34 claim: on the same bursty workload both engines must report
// in-flight reordering for Flow Director and none for RSS — and both
// runs go through runBoth, so the usual arrival and ledger agreements
// hold on NUMA hash-dispatch points too.
func TestDifferentialReorderingAgreement(t *testing.T) {
	numa := &topo.Topology{Sockets: 2, CoresPerSocket: 4,
		SameSocketTransient: 1.1, CrossSocketTransient: 1.8}
	base := sim.Params{
		Paradigm: sim.Locking, Streams: 8, Processors: 8,
		Topology:        numa,
		Arrival:         traffic.Batch{PacketsPerSec: 2500, MeanBurst: 16},
		Seed:            42,
		MeasuredPackets: 3000,
	}
	rss := base
	rss.Policy = sched.RSS
	fd := base
	fd.Policy = sched.FlowDirector

	desRSS, liveRSS := runBoth(t, rss)
	if desRSS.ReorderedTotal != 0 || liveRSS.ReorderedTotal != 0 {
		t.Errorf("RSS reordered packets (des %d, live %d) — static homes cannot reorder",
			desRSS.ReorderedTotal, liveRSS.ReorderedTotal)
	}
	desFD, liveFD := runBoth(t, fd)
	if desFD.ReorderedTotal == 0 || liveFD.ReorderedTotal == 0 {
		t.Errorf("Flow Director reordering missing on a backend (des %d, live %d) — both must observe it",
			desFD.ReorderedTotal, liveFD.ReorderedTotal)
	}
}
