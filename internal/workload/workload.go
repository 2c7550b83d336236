// Package workload models the general non-protocol activity that
// competes with protocol processing for the caches. The paper models it
// with the Singh–Stone–Thiebaut MVS-trace constants (held in
// internal/core); this package adds the scheduling-facing knobs: the
// intensity V — the fraction of full-speed displacement the background
// causes while a processor is not executing protocol code — and the cost
// of preempting it when a packet arrives.
package workload

import (
	"fmt"
	"math"
)

// NonProtocol describes the background workload on every processor.
//
// V = 1 is the paper's loaded host; V = 0 is the idle host that yields
// the paper's upper-bound (40–50 %) affinity benefit curves.
type NonProtocol struct {
	// Intensity is V ∈ [0, 1]: the displacing-reference rate of the
	// background workload relative to a fully busy processor.
	Intensity float64
	// PreemptCost is the fixed cost (µs) of preempting the background
	// task when protocol work arrives at a processor it occupies.
	PreemptCost float64
}

// Default returns the paper's loaded-host configuration.
func Default() NonProtocol {
	return NonProtocol{Intensity: 1, PreemptCost: 5}
}

// Idle returns the V = 0 host used for upper-bound curves.
func Idle() NonProtocol {
	return NonProtocol{Intensity: 0, PreemptCost: 0}
}

// WithIntensity returns the default configuration at intensity v. The
// preempt cost scales linearly with v — at intensity v the background
// task occupies an otherwise-idle processor a v fraction of the time,
// so the expected eviction cost a dispatch pays is v·(full cost). That
// keeps the V sweep continuous through 0: WithIntensity(0) is exactly
// Idle() and WithIntensity(ε) charges ε·5 µs, not the full 5.
func WithIntensity(v float64) NonProtocol {
	n := Default()
	n.Intensity = v
	n.PreemptCost *= v
	return n
}

// Validate reports a descriptive error for out-of-range parameters.
func (n NonProtocol) Validate() error {
	if !(n.Intensity >= 0 && n.Intensity <= 1) {
		return fmt.Errorf("workload: intensity %v outside [0, 1]", n.Intensity)
	}
	if !(n.PreemptCost >= 0) || math.IsInf(n.PreemptCost, 1) {
		return fmt.Errorf("workload: preempt cost %v must be finite and ≥ 0", n.PreemptCost)
	}
	return nil
}
