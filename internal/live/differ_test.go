package live_test

import (
	"math"
	"reflect"
	"testing"

	"affinity/internal/exp"
	"affinity/internal/live"
	"affinity/internal/sched"
	"affinity/internal/sim"
	"affinity/internal/traffic"
)

// The differential validation harness: the DES and the live goroutine
// backend run the same configurations and must agree on everything the
// model determines — packet conservation, affinity-hit accounting, and
// which policy wins at every E29 operating point — and, wherever no two
// events share an instant, on every Results field bit for bit. This is
// what turns the DES goldens into cross-validated results instead of
// self-referential ones: a bug in either engine's clock or service
// hand-off breaks the agreement. See DESIGN.md §10.

// delayTolerance is the documented DES↔live relative mean-delay bound
// for the tie-heavy rows of toleranceCases. Both backends run the same
// host core (internal/sim), and the live clock fires its event sources
// (arrival streams, fault-plan events, the gauge sampler) itself, one
// at a time in the DES's (time, seq) order (clock.go), so wherever no
// two events share an instant the backends agree bit for bit
// (differCase.exact). The one residual divergence is a source tying
// exactly with a completion: the live clock fires the source first,
// while the DES goes by global insertion order. That happens on every
// run of same-rate CBR under Locking/MRU and of batch arrivals under
// Locking/FCFS. The worst divergence measured is 0.19% (batch/FCFS at
// this harness's 3,000 packets, seeds 1–3, 100 live runs per seed), so
// 0.5% is about 2.5x headroom; DESIGN.md §10 gives the figures.
const delayTolerance = 0.005

var differSeeds = []int64{1, 2, 3}

// runBoth executes the same Params on both backends and checks the
// shared invariants plus the exact cross-backend agreements: identical
// admitted arrivals (same seed-derived arrival RNG streams) and a
// conserved ledger on each side.
func runBoth(t *testing.T, p sim.Params) (des, lv sim.Results) {
	t.Helper()
	des = sim.Run(p)
	lv = live.Run(p)
	for _, r := range []struct {
		backend string
		res     sim.Results
	}{{"des", des}, {"live", lv}} {
		if err := sim.CheckInvariants(r.res); err != nil {
			t.Errorf("%s: %v", r.backend, err)
		}
	}
	if des.Arrivals != lv.Arrivals {
		t.Errorf("%s/%s seed=%d: DES %d arrivals, live %d — arrival streams must be bit-identical",
			des.Paradigm, des.Policy, p.Seed, des.Arrivals, lv.Arrivals)
	}
	return des, lv
}

// requireIdentical asserts the two backends produced the same Results
// bit for bit. EventsFired is masked: the DES counts heap events, the
// live backend counts clock releases.
func requireIdentical(t *testing.T, des, lv sim.Results, seed int64) {
	t.Helper()
	lv.EventsFired = des.EventsFired
	if !reflect.DeepEqual(des, lv) {
		t.Errorf("%s/%s seed=%d: live Results differ from the DES on a tie-free point\n des:  %+v\n live: %+v",
			des.Paradigm, des.Policy, seed, des, lv)
	}
}

// TestDifferentialWinOrderE29 replays the E29 sweep across seeds: at
// every operating point the two backends must name the same winning
// policy. Every E29 point is tie-free (Poisson arrivals), so each run
// must also agree bit for bit.
func TestDifferentialWinOrderE29(t *testing.T) {
	for _, cs := range exp.E29Cases() {
		for _, seed := range differSeeds {
			a, b := cs.A, cs.B
			a.Seed, b.Seed = seed, seed
			a.MeasuredPackets, b.MeasuredPackets = 3000, 3000
			desA, liveA := runBoth(t, a)
			desB, liveB := runBoth(t, b)
			requireIdentical(t, desA, liveA, seed)
			requireIdentical(t, desB, liveB, seed)
			desWin := desA.Policy
			if desB.MeanDelay < desA.MeanDelay {
				desWin = desB.Policy
			}
			liveWin := liveA.Policy
			if liveB.MeanDelay < liveA.MeanDelay {
				liveWin = liveB.Policy
			}
			if desWin != liveWin {
				t.Errorf("%s seed=%d: DES says %s wins (%v vs %v), live says %s (%v vs %v)",
					cs.Name, seed, desWin, desA.MeanDelay, desB.MeanDelay,
					liveWin, liveA.MeanDelay, liveB.MeanDelay)
			}
		}
	}
}

// differCase is one operating point of the quantitative comparison.
// exact marks points where no two events share an instant: there the
// backends must agree bit for bit, and only the tie-heavy rows fall
// back to delayTolerance.
type differCase struct {
	p     sim.Params
	exact bool
}

// toleranceCases are unsaturated operating points for the quantitative
// comparison, including tie-heavy arrival processes (deterministic,
// batch) where an arrival can tie with a completion.
func toleranceCases() []differCase {
	return []differCase{
		{sim.Params{Paradigm: sim.Locking, Policy: sched.FCFS, Streams: 8,
			Arrival: traffic.Poisson{PacketsPerSec: 2500}}, true},
		{sim.Params{Paradigm: sim.Locking, Policy: sched.MRU, Streams: 8,
			Arrival: traffic.Deterministic{PacketsPerSec: 2500}}, false},
		{sim.Params{Paradigm: sim.Locking, Policy: sched.ThreadPools, Streams: 16,
			Arrival: traffic.Poisson{PacketsPerSec: 1500}}, true},
		{sim.Params{Paradigm: sim.Locking, Policy: sched.FCFS, Streams: 8,
			Arrival: traffic.Batch{PacketsPerSec: 2500, MeanBurst: 16}}, false},
		{sim.Params{Paradigm: sim.IPS, Policy: sched.IPSWired, Streams: 16, Stacks: 16,
			Arrival: traffic.Poisson{PacketsPerSec: 2500}}, true},
		{sim.Params{Paradigm: sim.IPS, Policy: sched.IPSWired, Streams: 16, Stacks: 16,
			Arrival: traffic.Deterministic{PacketsPerSec: 2000}}, true},
		{sim.Params{Paradigm: sim.Hybrid, Policy: sched.IPSMRU, Streams: 8, Stacks: 4,
			Arrival: traffic.Poisson{PacketsPerSec: 3000}}, true},
	}
}

// TestDifferentialMeanDelayTolerance pins the cross-backend agreement
// across every tolerance case and seed: bit-identical Results on the
// exact rows; on the tie-heavy rows, mean delay within delayTolerance
// and warm fraction within 0.1.
func TestDifferentialMeanDelayTolerance(t *testing.T) {
	for _, cs := range toleranceCases() {
		for _, seed := range differSeeds {
			p := cs.p
			p.Seed = seed
			p.MeasuredPackets = 3000
			des, lv := runBoth(t, p)
			if des.Saturated || lv.Saturated {
				t.Errorf("%s/%s seed=%d: tolerance point saturated (des=%v live=%v) — pick a lighter load",
					des.Paradigm, des.Policy, seed, des.Saturated, lv.Saturated)
				continue
			}
			if cs.exact {
				requireIdentical(t, des, lv, seed)
				continue
			}
			rel := math.Abs(lv.MeanDelay-des.MeanDelay) / des.MeanDelay
			if rel > delayTolerance {
				t.Errorf("%s/%s %v seed=%d: mean delay DES %.2f vs live %.2f (rel %.4f > %.2f)",
					des.Paradigm, des.Policy, cs.p.Arrival, seed,
					des.MeanDelay, lv.MeanDelay, rel, delayTolerance)
			}
			if diff := math.Abs(lv.WarmFraction - des.WarmFraction); diff > 0.1 {
				t.Errorf("%s/%s seed=%d: warm fraction DES %.3f vs live %.3f",
					des.Paradigm, des.Policy, seed, des.WarmFraction, lv.WarmFraction)
			}
		}
	}
}

// TestDifferentialFaultAccounting compares the two backends under a
// deterministic fault plan: the plans fire at the same virtual times on
// both, so down-time accounting must match exactly and the ledgers must
// balance on each side independently.
func TestDifferentialFaultAccounting(t *testing.T) {
	for _, seed := range differSeeds {
		p := sim.Params{
			Paradigm: sim.Locking, Policy: sched.MRU, Streams: 8,
			Arrival:         traffic.Poisson{PacketsPerSec: 2000},
			Seed:            seed,
			MeasuredPackets: 3000,
			MaxQueueDepth:   32,
		}
		p.Faults = exp.E26Plan()
		des, lv := runBoth(t, p)
		if len(des.PerProcDownTime) != len(lv.PerProcDownTime) {
			t.Fatalf("seed=%d: down-time vectors differ in length", seed)
		}
		for i := range des.PerProcDownTime {
			if math.Abs(des.PerProcDownTime[i]-lv.PerProcDownTime[i]) > 1e-6 {
				t.Errorf("seed=%d proc %d: down time DES %v vs live %v",
					seed, i, des.PerProcDownTime[i], lv.PerProcDownTime[i])
			}
		}
	}
}
