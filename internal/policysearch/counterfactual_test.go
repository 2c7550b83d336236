package policysearch

import (
	"math"
	"reflect"
	"testing"

	"affinity/internal/des"
	"affinity/internal/faults"
	"affinity/internal/obs"
	"affinity/internal/sched"
	"affinity/internal/sim"
	"affinity/internal/traffic"
)

func base(policy sched.Kind) sim.Params {
	return sim.Params{
		Paradigm:        sim.Locking,
		Policy:          policy,
		Streams:         8,
		Processors:      4,
		Arrival:         traffic.Poisson{PacketsPerSec: 1200},
		Seed:            42,
		MeasuredPackets: 1200,
	}
}

// The zero-perturbation identity, the contract everything else rests
// on: replaying the factual choice at every decision ordinal must
// reproduce the factual Results bit for bit — across policies with
// genuinely different decision structures, bursty arrivals, and fault
// transitions that reshape the candidate sets mid-run. If this drifts
// by one RNG draw, every counterfactual's "divergence is the
// substitution alone" claim is void.
func TestReplayFactualIsBitIdentical(t *testing.T) {
	shapes := map[string]func(*sim.Params){
		"poisson": func(p *sim.Params) {},
		"bursty": func(p *sim.Params) {
			p.Arrival = traffic.Batch{PacketsPerSec: 1200, MeanBurst: 8}
		},
		"faults": func(p *sim.Params) {
			p.Faults = (&faults.Plan{}).
				Down(50*des.Millisecond, 1).
				Up(120*des.Millisecond, 1)
			p.MaxQueueDepth = 64
		},
	}
	policies := []sched.Kind{sched.FCFS, sched.MRU, sched.ThreadPools, sched.WiredStreams}
	for name, shape := range shapes {
		for _, pol := range policies {
			p := base(pol)
			shape(&p)
			factual, ledger := Factual(p)
			if ledger.Len() == 0 {
				t.Fatalf("%s/%v: empty ledger", name, pol)
			}
			replayed := ReplayFactual(sim.NewPool(1), p, ledger)
			if !reflect.DeepEqual(factual, replayed) {
				t.Errorf("%s/%v: zero-perturbation replay diverged\nfactual:  %+v\nreplayed: %+v",
					name, pol, factual, replayed)
			}
		}
	}
}

// The identity must also hold for an interior AffinitySteal point —
// the dispatcher whose decisions the search actually replays.
func TestReplayFactualStealInterior(t *testing.T) {
	p := base(sched.AffinitySteal)
	p.Steal = sched.StealParams{Penalty: 25, DepthThreshold: 2, ColdBias: 1}
	p.Arrival = traffic.Batch{PacketsPerSec: 1200, MeanBurst: 8}
	factual, ledger := Factual(p)
	if got := ReplayFactual(sim.NewPool(1), p, ledger); !reflect.DeepEqual(factual, got) {
		t.Errorf("steal interior zero-perturbation replay diverged\nfactual:  %+v\nreplayed: %+v", factual, got)
	}
}

// An empty substitution list is the same identity by a different path:
// the override fires at every ordinal and always keeps the dispatcher's
// own choice.
func TestReplayNoSubstitutionsEqualsFactual(t *testing.T) {
	p := base(sched.MRU)
	factual, _ := Factual(p)
	replayed, led := Replay(sim.NewPool(1), p, nil)
	if !reflect.DeepEqual(factual, replayed) {
		t.Errorf("empty-substitution replay diverged from factual")
	}
	if led.Len() == 0 {
		t.Error("replay ledger empty — Replay must re-record the run's decisions")
	}
}

// Substitutions that cannot apply — an ordinal past the end of the run,
// or a processor the dispatcher never considered at that ordinal — must
// leave the replay exactly factual rather than panic or perturb.
func TestInapplicableSubstitutionsAreNoOps(t *testing.T) {
	p := base(sched.MRU)
	factual, ledger := Factual(p)
	subs := []Substitution{
		{Index: uint64(ledger.Len() + 1000), Proc: 0}, // past the end
		{Index: 0, Proc: 97},                          // never a candidate
	}
	replayed, _ := Replay(sim.NewPool(1), p, subs)
	if !reflect.DeepEqual(factual, replayed) {
		t.Errorf("inapplicable substitutions perturbed the replay")
	}
}

// A substitution that does apply must actually steer the run: find a
// multi-candidate decision whose candidate set contains a processor
// other than the chosen one, force it, and require the replayed run's
// own ledger to show the forced choice at that ordinal.
func TestSubstitutionForcesTheChoice(t *testing.T) {
	p := base(sched.MRU)
	_, ledger := Factual(p)
	idx := -1
	alt := -1
	for i := 0; i < ledger.Len(); i++ {
		d := ledger.At(i)
		for _, c := range d.Candidates {
			if c.Proc != d.Chosen {
				idx, alt = i, c.Proc
				break
			}
		}
		if idx >= 0 {
			break
		}
	}
	if idx < 0 {
		t.Fatal("no multi-candidate decision in the factual ledger")
	}
	_, replayLed := Replay(sim.NewPool(1), p, []Substitution{{Index: uint64(idx), Proc: alt}})
	// The replay is bit-identical up to the divergence point, so the
	// ordinal numbering agrees and decision idx exists in the new ledger.
	if got := replayLed.At(idx).Chosen; got != alt {
		t.Errorf("decision %d chose %d under substitution, want forced %d", idx, got, alt)
	}
	for i := 0; i < idx; i++ {
		if !reflect.DeepEqual(ledger.At(i), replayLed.At(i)) {
			t.Errorf("decision %d before the divergence point differs", i)
		}
	}
}

// Every counterfactual replay is still a complete, conserved
// simulation: the 4-term packet-conservation ledger and the shared
// invariant checkers must hold on substituted runs, including under
// faults and bounded queues.
func TestReplayedRunsConserve(t *testing.T) {
	p := base(sched.MRU)
	p.Faults = (&faults.Plan{}).
		Down(40*des.Millisecond, 0).
		Up(90*des.Millisecond, 0)
	p.MaxQueueDepth = 32
	_, ledger := Factual(p)
	n := ledger.Len()
	for _, idx := range []int{0, n / 3, n / 2, n - 1} {
		d := ledger.At(idx)
		for _, c := range d.Candidates {
			res, _ := Replay(sim.NewPool(1), p, []Substitution{{Index: uint64(idx), Proc: c.Proc}})
			if err := sim.CheckInvariants(res); err != nil {
				t.Errorf("substitution idx=%d proc=%d: %v", idx, c.Proc, err)
			}
		}
	}
}

// TopK: descending predicted gain, only positive-regret decisions, the
// substituted processor is the cheapest candidate, and RealizedGain is
// exactly the ground-truth re-simulation delta (that is its definition;
// pinning it here keeps E36's "validated against re-simulation" claim
// honest if the implementation is ever refactored).
func TestTopKSemantics(t *testing.T) {
	p := base(sched.FCFS) // blind placement: plenty of regret
	factual, ledger := Factual(p)
	k := 4
	cfs := TopK(p, factual, ledger, k)
	if len(cfs) == 0 || len(cfs) > k {
		t.Fatalf("TopK returned %d counterfactuals, want 1..%d", len(cfs), k)
	}
	for i, cf := range cfs {
		if cf.PredictedGain <= 0 {
			t.Errorf("counterfactual %d has non-positive predicted gain %g", i, cf.PredictedGain)
		}
		if i > 0 && cf.PredictedGain > cfs[i-1].PredictedGain {
			t.Errorf("counterfactuals out of descending predicted-gain order at %d", i)
		}
		d := cf.Decision
		if got := d.Regret(); math.Abs(got-cf.PredictedGain) > 1e-12 {
			t.Errorf("counterfactual %d: predicted gain %g != decision regret %g", i, cf.PredictedGain, got)
		}
		for _, c := range d.Candidates {
			if c.Cost < d.BestCost {
				t.Errorf("counterfactual %d: candidate %d cheaper than BestCost", i, c.Proc)
			}
		}
		want := factual.MeanDelay - cf.Replayed.MeanDelay
		if math.Abs(cf.RealizedGain-want) > 1e-12 {
			t.Errorf("counterfactual %d: realized gain %g != factual−replayed %g", i, cf.RealizedGain, want)
		}
		if err := sim.CheckInvariants(cf.Replayed); err != nil {
			t.Errorf("counterfactual %d replay: %v", i, err)
		}
	}
}

// TopKOn submits its k replays to the pool together. However the pool
// orders them, they come back in rank order and equal TopK's
// one-at-a-time replays, and the pool executes every one: a replay
// carries a DecisionOverride, so none is served from the cache.
func TestTopKOnPoolMatchesSerial(t *testing.T) {
	p := base(sched.FCFS)
	pool := sim.NewPool(4)
	factual, ledger := FactualOn(pool, p)
	got := TopKOn(pool, p, factual, ledger, 4)
	if want := TopK(p, factual, ledger, 4); len(got) == 0 || !reflect.DeepEqual(want, got) {
		t.Errorf("TopKOn on a 4-slot pool returned %d counterfactuals unlike TopK's %d", len(got), len(want))
	}
	if c := pool.Counts(); c.DES != uint64(1+len(got)) || c.Cached != 0 || c.Requested != c.DES {
		t.Errorf("pool counts %+v, want %d DES runs executed and none cached", c, 1+len(got))
	}
}

// A zero-regret run (single processor: every decision's only candidate
// is the choice) has no counterfactuals to offer, at any k.
func TestTopKSkipsZeroRegret(t *testing.T) {
	p := base(sched.FCFS)
	p.Processors = 1
	p.Streams = 2
	p.Arrival = traffic.Poisson{PacketsPerSec: 1500}
	factual, ledger := Factual(p)
	if got := TopK(p, factual, ledger, 8); len(got) != 0 {
		t.Errorf("TopK on a 1-processor run returned %d counterfactuals, want 0", len(got))
	}
}

// Factual tees an existing recorder rather than replacing it: both the
// caller's recorder and the returned ledger must see every decision.
func TestFactualPreservesCallerRecorder(t *testing.T) {
	p := base(sched.MRU)
	mine := newCountingRecorder()
	p.DecisionRecorder = mine
	_, ledger := Factual(p)
	if mine.n == 0 || mine.n != ledger.Len() {
		t.Errorf("caller recorder saw %d decisions, ledger %d — tee broken", mine.n, ledger.Len())
	}
}

type countingRecorder struct{ n int }

func newCountingRecorder() *countingRecorder { return &countingRecorder{} }

func (c *countingRecorder) RecordDecision(obs.Decision) { c.n++ }
