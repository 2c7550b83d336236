package live

import (
	"fmt"
	"testing"

	"affinity/internal/des"
	"affinity/internal/faults"
	"affinity/internal/obs"
	"affinity/internal/sched"
	"affinity/internal/sim"
	"affinity/internal/traffic"
)

// kindCounter tallies events per kind; the comparisons below only use
// kinds whose counts are determined by the deterministic inputs both
// backends share (arrival RNG streams, loss RNG stream, fault plan) —
// not by scheduling order, which the live backend resolves under a real
// lock.
type kindCounter struct {
	counts map[obs.Kind]uint64
}

func (k *kindCounter) Record(e obs.Event) {
	if k.counts == nil {
		k.counts = map[obs.Kind]uint64{}
	}
	k.counts[e.Kind]++
}

// arrivalOrder records the exact firing order of arrival and drop
// events: (kind, virtual time, stream, packet serial) per packet.
type arrivalOrder struct {
	evs []obs.Event
}

func (a *arrivalOrder) Record(e obs.Event) {
	if e.Kind == obs.KindArrival || e.Kind == obs.KindDrop {
		a.evs = append(a.evs, obs.Event{T: e.T, Kind: e.Kind, Stream: e.Stream, Seq: e.Seq})
	}
}

// requireSameOrder runs params on both backends and asserts that they
// record the same arrivals and drops in the same order and drop the
// same number of packets.
func requireSameOrder(t *testing.T, name string, params func() sim.Params) {
	t.Helper()
	var do, lo arrivalOrder
	pd := params()
	pd.Recorder = &do
	dres := sim.Run(pd)
	pl := params()
	pl.Recorder = &lo
	lres := Run(pl)
	n := min(len(do.evs), len(lo.evs))
	for i := 0; i < n; i++ {
		if do.evs[i] != lo.evs[i] {
			t.Errorf("%s: event %d: DES %+v, live %+v — same-instant order diverged",
				name, i, do.evs[i], lo.evs[i])
			break
		}
	}
	if len(do.evs) != len(lo.evs) {
		t.Errorf("%s: DES recorded %d arrivals and drops, live %d", name, len(do.evs), len(lo.evs))
	}
	if dres.Dropped != lres.Dropped {
		t.Errorf("%s: DES dropped %d packets, live %d", name, dres.Dropped, lres.Dropped)
	}
	if len(do.evs) == 0 {
		t.Errorf("%s: no arrivals recorded — agreement is vacuous", name)
	}
}

// TestArrivalOrderAgreesWithDES pins the deterministic tie-break: on
// tie-heavy arrival processes (same-rate CBR streams collide at every
// instant; batch streams deliver same-instant bursts) the live backend
// must admit packets in exactly the DES's order — same (time, stream)
// sequence, same serial numbers — because its clock fires same-instant
// arrival sources one at a time in the DES's (time, seq) schedule order
// (clock.go) instead of letting goroutine scheduling race them.
func TestArrivalOrderAgreesWithDES(t *testing.T) {
	cases := []struct {
		name string
		arr  traffic.Spec
	}{
		{"cbr", traffic.Deterministic{PacketsPerSec: 2500}},
		{"batch", traffic.Batch{PacketsPerSec: 2500, MeanBurst: 8}},
		{"mixed-period", traffic.Deterministic{PacketsPerSec: 2000}},
	}
	for _, cs := range cases {
		for _, seed := range []int64{1, 2, 3} {
			requireSameOrder(t, fmt.Sprintf("%s seed=%d", cs.name, seed), func() sim.Params {
				p := quick(sim.Locking, sched.MRU)
				p.Streams = 8
				p.Arrival = cs.arr
				p.MeasuredPackets = 500
				p.Seed = seed
				return p
			})
		}
	}
}

// TestFaultOnArrivalInstantAgreesWithDES: a fault-plan event due at the
// instant of arrivals applies before them on both backends, because the
// fault plan is scheduled before the streams' first arrivals, as the
// DES runner schedules it. Eight in-phase CBR streams put eight
// arrivals on the instant of a loss event that drops every packet from
// then on, so all eight must be lost.
func TestFaultOnArrivalInstantAgreesWithDES(t *testing.T) {
	plan, err := faults.Parse("loss:1@100ms")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 3} {
		requireSameOrder(t, fmt.Sprintf("seed=%d", seed), func() sim.Params {
			p := quick(sim.Locking, sched.MRU)
			p.Streams = 8
			p.Arrival = traffic.Deterministic{PacketsPerSec: 1000}
			p.MeasuredPackets = 500
			p.MaxTime = 150 * des.Millisecond
			p.Faults = plan
			p.Seed = seed
			return p
		})
	}
}

// TestLiveObsAgreesWithDES replays the sim package's pinned fault-plan
// fixture scenario (see TestObsGoldenFaultRun) on both backends and
// checks the event stream agrees wherever determinism is shared:
// arrivals, drops, and the fault transitions. Both decision ledgers must
// be live too, even though their contents order-depend.
func TestLiveObsAgreesWithDES(t *testing.T) {
	params := func() sim.Params {
		p := quick(sim.Locking, sched.MRU)
		p.Processors = 2
		p.Streams = 2
		p.Arrival = traffic.Poisson{PacketsPerSec: 500}
		p.MeasuredPackets = 100
		p.Warmup = des.Millisecond
		p.MaxQueueDepth = 1
		p.Seed = 42
		p.Faults = (&faults.Plan{}).
			Down(20*des.Millisecond, 0).
			Up(40*des.Millisecond, 0).
			WithLoss(0, 0.05)
		return p
	}

	var desCount, liveCount kindCounter
	pd := params()
	pd.Recorder = &desCount
	pd.DecisionRecorder = obs.NewFlightRecorder(0, 0)
	desRes := sim.Run(pd)

	pl := params()
	pl.Recorder = &liveCount
	pl.DecisionRecorder = obs.NewFlightRecorder(0, 0)
	liveRes := Run(pl)

	for _, k := range []obs.Kind{obs.KindArrival, obs.KindDrop, obs.KindProcDown, obs.KindProcUp} {
		if desCount.counts[k] != liveCount.counts[k] {
			t.Errorf("%v: DES saw %d, live saw %d", k, desCount.counts[k], liveCount.counts[k])
		}
		if desCount.counts[k] == 0 {
			t.Errorf("%v: scenario produced no events — agreement is vacuous", k)
		}
	}
	if desRes.DecisionsRecorded == 0 || liveRes.DecisionsRecorded == 0 {
		t.Errorf("decision ledgers: DES %d, live %d — both must be live",
			desRes.DecisionsRecorded, liveRes.DecisionsRecorded)
	}
}
