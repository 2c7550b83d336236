package sim

import (
	"reflect"
	"testing"

	"affinity/internal/sched"
	"affinity/internal/topo"
	"affinity/internal/traffic"
)

// The topology model's backward-compatibility contract: a flat machine
// — no Topology, topo.Flat, or any shape whose transient multipliers
// are both 1 — must leave every run bit-for-bit identical to the
// pre-topology simulator. The runner guarantees this structurally (it
// only stores the topology pointer when a multiplier differs from 1),
// and these tests pin the guarantee behaviorally across paradigms.

// normalizePolicy clears the fields that name the policy so two runs
// that are supposed to make identical decisions can be compared with
// DeepEqual over everything else.
func normalizePolicy(r Results) Results {
	r.Policy = ""
	return r
}

func TestFlatTopologyIsNoOp(t *testing.T) {
	for _, c := range []struct {
		paradigm Paradigm
		policy   sched.Kind
	}{
		{Locking, sched.FCFS},
		{Locking, sched.MRU},
		{Locking, sched.WiredStreams},
		{IPS, sched.IPSWired},
		{Hybrid, sched.IPSMRU},
	} {
		p := quick(c.paradigm, c.policy)
		p.Processors = 8
		base := Run(p)
		for name, tp := range map[string]*topo.Topology{
			"flat":      topo.Flat(8),
			"numa-unit": {Sockets: 2, CoresPerSocket: 4, SameSocketTransient: 1, CrossSocketTransient: 1},
		} {
			p2 := p
			p2.Topology = tp
			if got := Run(p2); !reflect.DeepEqual(base, got) {
				t.Errorf("%s/%s: %s topology changed results — must be a no-op",
					c.paradigm, c.policy, name)
			}
		}
	}
}

// TestTopologyPenaltyIsALever is the negative control for the no-op
// test: once a transient multiplier exceeds 1, migration-heavy runs
// must actually slow down. FCFS migrates constantly, so the cross-
// socket penalty has to surface in mean delay; a wired policy never
// migrates after stream assignment, so it must stay bit-identical even
// on a hostile topology.
func TestTopologyPenaltyIsALever(t *testing.T) {
	numa := &topo.Topology{Sockets: 2, CoresPerSocket: 4,
		SameSocketTransient: 1.2, CrossSocketTransient: 2.5}

	p := quick(Locking, sched.FCFS)
	p.Processors = 8
	flat := Run(p)
	p.Topology = numa
	penalized := Run(p)
	if penalized.MeanDelay <= flat.MeanDelay {
		t.Errorf("FCFS on 2x4:1.2,2.5 mean delay %v not above flat %v — penalty not charged",
			penalized.MeanDelay, flat.MeanDelay)
	}

	w := quick(Locking, sched.WiredStreams)
	w.Processors = 8
	wiredFlat := Run(w)
	w.Topology = numa
	if got := Run(w); !reflect.DeepEqual(wiredFlat, got) {
		t.Error("Wired-Streams results moved under a NUMA topology — a never-migrating policy must not pay transients")
	}
}

// TestRSSIdentityEqualsWiredStreams is the RSS correctness anchor:
// with an identity hash and constant-gap arrivals, every stream's
// first packet fires in stream order, so Wired-Streams' first-seen
// round-robin assigns home(s) = s mod n — exactly the RSS indirection
// table's static mapping. The two policies then make identical
// decisions forever, so the Results must match bit for bit (modulo
// the policy name).
func TestRSSIdentityEqualsWiredStreams(t *testing.T) {
	base := Params{
		Paradigm: Locking, Streams: 8, Processors: 4,
		Arrival:         traffic.Deterministic{PacketsPerSec: 2000},
		Seed:            42,
		MeasuredPackets: 3000,
	}
	rss := base
	rss.Policy = sched.RSS
	rss = WithHashIdentity(rss)
	wired := base
	wired.Policy = sched.WiredStreams
	a, b := Run(rss), Run(wired)
	if a.ReorderedTotal != 0 {
		t.Errorf("RSS reordered %d packets — static homes can never reorder a stream", a.ReorderedTotal)
	}
	if !reflect.DeepEqual(normalizePolicy(a), normalizePolicy(b)) {
		t.Errorf("identity-hash RSS diverged from Wired-Streams\n rss:   %+v\n wired: %+v", a, b)
	}

	// Lever: with the real mixing hash the table assignment differs from
	// first-seen round-robin, so the equivalence must break.
	mixed := rss
	mixed.hashIdentity = false
	if reflect.DeepEqual(normalizePolicy(Run(mixed)), normalizePolicy(b)) {
		t.Error("mixed-hash RSS still equals Wired-Streams — the identity-hash condition is vacuous")
	}
}

// TestFlowDirectorDisabledEqualsRSS: Flow Director is RSS plus a
// rebalancing trigger. With the trigger disabled (FDRebalance < 0) the
// two dispatchers are the same code path, so the equivalence is
// bit-for-bit; with the default trigger on bursty arrivals the flow
// table must actually move entries (the lever), which is what E34
// measures as in-flight reordering.
func TestFlowDirectorDisabledEqualsRSS(t *testing.T) {
	base := quick(Locking, sched.RSS)
	base.Processors = 4
	base.Arrival = traffic.Batch{PacketsPerSec: 2500, MeanBurst: 16}
	fd := base
	fd.Policy = sched.FlowDirector
	fd.FDRebalance = -1
	a, b := Run(fd), Run(base)
	if !reflect.DeepEqual(normalizePolicy(a), normalizePolicy(b)) {
		t.Errorf("rebalance-disabled Flow Director diverged from RSS\n fd:  %+v\n rss: %+v", a, b)
	}

	live := base
	live.Policy = sched.FlowDirector // FDRebalance 0 → default trigger
	c := Run(live)
	if c.ReorderedTotal == 0 {
		t.Error("Flow Director with default trigger never reordered on bursty arrivals — rebalancing never fired")
	}
	if b.ReorderedTotal != 0 {
		t.Errorf("RSS reordered %d packets on the same workload", b.ReorderedTotal)
	}
}

// TestReorderPathZeroAllocs extends the steady-state allocation pin to
// the sparse per-stream reordering counter: once the map exists, a
// reordered completion in steady state increments an existing key and
// must not allocate. Flow Director under bursty load reorders
// constantly, making it the densest exerciser of the path.
func TestReorderPathZeroAllocs(t *testing.T) {
	p := quick(Locking, sched.FlowDirector)
	p.Processors = 4
	p.Arrival = traffic.Batch{PacketsPerSec: 3000, MeanBurst: 16}
	p.MeasuredPackets = 1 << 30 // never stop
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
	if r.reordered == 0 {
		t.Fatal("no reordering during warmup — the path under test never ran")
	}
	got := testing.AllocsPerRun(50, func() {
		for i := 0; i < 2_000; i++ {
			r.sim.Step()
		}
	})
	if got != 0 {
		t.Errorf("%v allocs per 2000 events on the reorder path, want 0", got)
	}
}
