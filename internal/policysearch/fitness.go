// Package policysearch turns the simulator into an optimizer: it
// evaluates the parameterized AffinitySteal policy family over a
// weighted fitness function, searches the (penalty, depth, bias)
// space for the best member, and answers counterfactual questions —
// "what would this run have looked like had decision #n gone to the
// other processor?" — by replaying a recorded decision ledger through
// the simulator's override hook.
//
// Everything here is deterministic: search evaluates candidates in a
// fixed order with a strict-improvement acceptance rule, and replay is
// exact — substituting the factual choice at every decision reproduces
// the factual Results bit for bit.
package policysearch

import "affinity/internal/sim"

// Weights prices each Results dimension into one scalar cost (lower is
// better). Every term is ≥ 0, so a policy can never buy fitness by
// overdriving one dimension into a negative price.
type Weights struct {
	// MeanDelay is the price per µs of mean packet delay.
	MeanDelay float64
	// P95Delay is the price per µs of 95th-percentile delay.
	P95Delay float64
	// Unfairness is the price per unit of (1 − Jain index) over
	// per-stream mean delays: 0 when perfectly even, up to the full
	// weight as one stream starves.
	Unfairness float64
	// GoodputShortfall is the price per pps by which delivered goodput
	// fell short of the offered rate — the term that punishes policies
	// that look fast only because they dropped or stranded load
	// (clamped at zero when goodput meets the offer).
	GoodputShortfall float64
}

// DefaultWeights prices a µs of P95 tail at a quarter of a µs of mean,
// a fully unfair run like 50 µs of mean delay, and each undelivered
// pps like 10 ns of delay — mean-delay-dominated, matching the paper's
// primary metric, with the other terms as tie-breakers and guardrails.
func DefaultWeights() Weights {
	return Weights{MeanDelay: 1, P95Delay: 0.25, Unfairness: 50, GoodputShortfall: 0.01}
}

// Fitness scores r under w; lower is better.
func Fitness(r sim.Results, w Weights) float64 {
	shortfall := r.OfferedRate - r.GoodputPPS
	if shortfall < 0 {
		shortfall = 0
	}
	unfair := 1 - r.DelayFairness
	if unfair < 0 {
		unfair = 0
	}
	return float64(w.MeanDelay*r.MeanDelay) + float64(w.P95Delay*r.P95Delay) +
		float64(w.Unfairness*unfair) + float64(w.GoodputShortfall*shortfall)
}
