package policysearch

import (
	"reflect"
	"testing"

	"affinity/internal/des"
	"affinity/internal/faults"
	"affinity/internal/sched"
	"affinity/internal/sim"
	"affinity/internal/traffic"
)

// FuzzCounterfactualConservation drives the replay engine with
// arbitrary substitution sets over arbitrary runs — random seeds,
// policies, burst shapes, fault windows and queue bounds — and holds
// the replayed run to the same contracts as any factual run:
//
//   - the 4-term packet-conservation ledger and the shared invariant
//     checkers hold (a substitution may reroute packets, never leak
//     them);
//   - the replay is deterministic (same substitutions, same Results);
//   - substituting every factual choice back in reproduces the factual
//     run bit for bit, whatever the run looked like.
//
// Wired into the CI fuzz step next to the engine/backend fuzzers.
func FuzzCounterfactualConservation(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(6000), false, uint8(0), uint32(3), uint8(1), uint32(40), uint8(3))
	f.Add(int64(7), uint8(1), uint16(9000), true, uint8(32), uint32(0), uint8(0), uint32(9999), uint8(2))
	f.Add(int64(42), uint8(2), uint16(12000), true, uint8(8), uint32(17), uint8(3), uint32(17), uint8(0))
	f.Add(int64(-5), uint8(3), uint16(3000), false, uint8(0), uint32(100), uint8(2), uint32(101), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, polByte uint8, rate uint16, withFaults bool,
		maxq uint8, idx1 uint32, proc1 uint8, idx2 uint32, proc2 uint8) {
		policies := []sched.Kind{sched.FCFS, sched.MRU, sched.ThreadPools, sched.WiredStreams}
		p := sim.Params{
			Paradigm:        sim.Locking,
			Policy:          policies[int(polByte)%len(policies)],
			Streams:         6,
			Processors:      4,
			Arrival:         traffic.Poisson{PacketsPerSec: float64(rate%20000) + 500},
			Seed:            seed,
			MeasuredPackets: 400,
			MaxQueueDepth:   int(maxq),
		}
		if withFaults {
			p.Faults = (&faults.Plan{}).
				Down(20*des.Millisecond, int(proc1)%p.Processors).
				Up(60*des.Millisecond, int(proc1)%p.Processors)
		}
		factual, ledger := Factual(p)
		if err := sim.CheckInvariants(factual); err != nil {
			t.Fatalf("factual run broken before any substitution: %v", err)
		}
		if ledger.Len() == 0 {
			return
		}
		subs := []Substitution{
			{Index: uint64(idx1) % uint64(ledger.Len()), Proc: int(proc1) % p.Processors},
			{Index: uint64(idx2) % uint64(2*ledger.Len()), Proc: int(proc2) % p.Processors},
		}
		res, _ := Replay(sim.NewPool(1), p, subs)
		if err := sim.CheckInvariants(res); err != nil {
			t.Fatalf("substituted replay violates invariants (subs %+v): %v", subs, err)
		}
		if res.Arrivals != res.CompletedTotal+uint64(res.InFlightAtEnd)+uint64(res.QueueAtEnd)+res.Dropped {
			t.Fatalf("replay leaks packets: arrivals %d, completed %d, in-flight %d, queued %d, dropped %d",
				res.Arrivals, res.CompletedTotal, res.InFlightAtEnd, res.QueueAtEnd, res.Dropped)
		}
		if res2, _ := Replay(sim.NewPool(1), p, subs); !reflect.DeepEqual(res, res2) {
			t.Fatal("same substitutions, different replay Results")
		}
		if got := ReplayFactual(sim.NewPool(1), p, ledger); !reflect.DeepEqual(factual, got) {
			t.Fatal("zero-perturbation replay diverged from factual")
		}
	})
}
