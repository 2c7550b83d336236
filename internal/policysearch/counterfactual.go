package policysearch

import (
	"sort"

	"affinity/internal/obs"
	"affinity/internal/sim"
)

// The counterfactual engine answers "what if decision #n had gone the
// other way?" exactly, by re-simulation rather than extrapolation: a
// factual run records its full decision ledger, a substitution forces a
// different (considered) candidate at one or more ordinals through
// sim.Params.DecisionOverride, and the simulator re-runs from t=0.
// Determinism makes this sound — the replay is bit-identical to the
// factual run up to the first applied substitution (the divergence
// point) because the override is consulted only after the factual
// choice, and its RNG draws, have already been made.

// Substitution forces decision Index (the ledger ordinal: decision i
// of the run, 0-based) to choose Proc instead of its factual choice.
// A substitution naming a processor outside the candidate set actually
// considered at that ordinal during the replay is inapplicable and
// silently keeps the replay's own choice: counterfactuals range over
// the alternatives the dispatcher really had, not arbitrary rewrites.
type Substitution struct {
	Index uint64
	Proc  int
}

// FactualOn runs p through pool with a fresh ledger attached (tee'd
// after any recorder p already carries) and returns the results
// together with the ledger to replay against.
func FactualOn(pool *sim.Pool, p sim.Params) (sim.Results, *obs.LedgerRecorder) {
	p, led := withLedger(p)
	return pool.Run(p), led
}

// Factual is FactualOn on a one-slot pool of its own. The benchmark
// module calls it by this name; ROADMAP item 13 moves that call onto
// FactualOn and deletes this wrapper.
func Factual(p sim.Params) (sim.Results, *obs.LedgerRecorder) {
	return FactualOn(sim.NewPool(1), p)
}

// Replay re-runs p through pool with subs forced in. Like FactualOn it
// attaches a fresh ledger — so a replayed Results is field-for-field
// comparable to a factual one, DecisionsRecorded included — and
// returns it; the replay ledger holds the counterfactual run's own
// decisions (realized costs under the substitution, not predictions).
//
// p must be the factual run's Params (any DecisionOverride already set
// is replaced). Duplicate indices in subs keep the last.
func Replay(pool *sim.Pool, p sim.Params, subs []Substitution) (sim.Results, *obs.LedgerRecorder) {
	p, led := replayParams(p, subs)
	return pool.Run(p), led
}

// replayParams returns p with subs forced in and a fresh ledger
// attached, and the ledger.
func replayParams(p sim.Params, subs []Substitution) (sim.Params, *obs.LedgerRecorder) {
	forced := make(map[uint64]int, len(subs))
	for _, s := range subs {
		forced[s.Index] = s.Proc
	}
	p.DecisionOverride = func(n uint64, _ obs.DecisionPoint, cands []int, chosen int) int {
		proc, ok := forced[n]
		if !ok {
			return chosen
		}
		for _, c := range cands {
			if c == proc {
				return proc
			}
		}
		return chosen // inapplicable: proc was not a candidate this time
	}
	return withLedger(p)
}

// withLedger returns p with a fresh ledger tee'd after its own decision
// recorder, and the ledger.
func withLedger(p sim.Params) (sim.Params, *obs.LedgerRecorder) {
	led := obs.NewLedgerRecorder()
	p.DecisionRecorder = obs.DecisionMulti(p.DecisionRecorder, led)
	return p, led
}

// ReplayFactual replays ledger against p through pool, forcing the
// *factual* choice at every ordinal — the zero-perturbation identity.
// The returned Results must equal the factual run's bit for bit; the
// metamorphic test pack pins this, and it is what licenses trusting
// any other replay's divergence to the substitution alone.
func ReplayFactual(pool *sim.Pool, p sim.Params, ledger *obs.LedgerRecorder) sim.Results {
	subs := make([]Substitution, ledger.Len())
	for i := range subs {
		subs[i] = Substitution{Index: uint64(i), Proc: ledger.At(i).Chosen}
	}
	res, _ := Replay(pool, p, subs)
	return res
}

// Counterfactual is one substituted decision with its predicted and
// realized effect.
type Counterfactual struct {
	Index    uint64       // ledger ordinal substituted
	Decision obs.Decision // the factual decision at that ordinal
	Proc     int          // the alternative forced (cheapest candidate)
	// PredictedGain is the factual decision's Regret(): the µs the
	// one-step cost model predicts the alternative saves on that single
	// packet, ignoring every downstream consequence.
	PredictedGain float64
	// RealizedGain is factual mean delay minus replayed mean delay, µs
	// (> 0 when the alternative genuinely helped). E36 compares it
	// against PredictedGain to expose how far one-step regret is from
	// ground truth.
	RealizedGain float64
	Replayed     sim.Results
}

// TopKOn finds the k highest-regret decisions in the factual ledger,
// substitutes each one's cheapest candidate (one at a time), and
// re-simulates the k counterfactuals together through pool. Results
// come back in descending predicted-gain order; ties and candidate
// scans break deterministically toward the lower ordinal / lower
// processor id. Zero-regret decisions (the choice already was the
// cheapest) are never substituted. A DecisionRecorder p carries sees
// the k replays' decisions interleaved.
func TopKOn(pool *sim.Pool, p sim.Params, factual sim.Results, ledger *obs.LedgerRecorder, k int) []Counterfactual {
	type pick struct {
		idx    int
		regret float64
	}
	picks := make([]pick, 0, ledger.Len())
	for i := 0; i < ledger.Len(); i++ {
		if r := ledger.At(i).Regret(); r > 0 {
			picks = append(picks, pick{i, r})
		}
	}
	sort.SliceStable(picks, func(a, b int) bool {
		if picks[a].regret != picks[b].regret {
			return picks[a].regret > picks[b].regret
		}
		return picks[a].idx < picks[b].idx
	})
	if k > len(picks) {
		k = len(picks)
	}
	out := make([]Counterfactual, k)
	replays := make([]sim.Params, k)
	for i, pk := range picks[:k] {
		d := ledger.At(pk.idx)
		best, bestCost := d.Chosen, d.ChosenCost
		for _, c := range d.Candidates {
			if c.Cost < bestCost || (c.Cost == bestCost && c.Proc < best) {
				best, bestCost = c.Proc, c.Cost
			}
		}
		out[i] = Counterfactual{
			Index:         uint64(pk.idx),
			Decision:      d,
			Proc:          best,
			PredictedGain: pk.regret,
		}
		replays[i], _ = replayParams(p, []Substitution{{Index: uint64(pk.idx), Proc: best}})
	}
	for i, res := range pool.RunAll(replays) {
		out[i].RealizedGain = factual.MeanDelay - res.MeanDelay
		out[i].Replayed = res
	}
	return out
}

// TopK is TopKOn on a one-slot pool of its own, which runs the k
// replays one after another. The benchmark module calls it by this
// name; ROADMAP item 13 moves that call onto TopKOn and deletes this
// wrapper.
func TopK(p sim.Params, factual sim.Results, ledger *obs.LedgerRecorder, k int) []Counterfactual {
	return TopKOn(sim.NewPool(1), p, factual, ledger, k)
}
