// Package queueing provides the classical queueing formulas used to
// cross-validate the discrete-event simulation: in configurations where
// protocol service time is constant (idle host, perfect affinity), the
// simulated stations reduce to M/D/1 or M/D/c systems with known mean
// waits, and the simulator must reproduce them. Experiment E20 runs the
// comparison; the sim package's tests enforce it.
//
// All times are in the caller's unit (the simulation uses microseconds);
// rates are in events per unit time.
package queueing

import "fmt"

// rho returns the utilization λ·s and panics outside [0, 1): these
// formulas have no steady state at or above saturation, and a caller
// probing one would silently get nonsense.
func rho(lambda, s float64) float64 {
	if lambda < 0 || s <= 0 {
		panic(fmt.Sprintf("queueing: invalid rate %v / service %v", lambda, s))
	}
	r := lambda * s
	if r >= 1 {
		panic(fmt.Sprintf("queueing: utilization %v ≥ 1 has no steady state", r))
	}
	return r
}

// MD1Wait returns the mean queueing delay of an M/D/1 queue:
// Wq = ρ·s / (2(1 − ρ)) — half the M/M/1 wait, deterministic service
// having zero variance.
func MD1Wait(lambda, s float64) float64 {
	r := rho(lambda, s)
	return r * s / (2 * (1 - r))
}

// ErlangC returns the probability an arrival must wait in an M/M/c queue
// offered a = λ·s erlangs on c servers (the Erlang C formula).
func ErlangC(c int, a float64) float64 {
	if c < 1 {
		panic(fmt.Sprintf("queueing: %d servers", c))
	}
	if a < 0 {
		panic(fmt.Sprintf("queueing: negative offered load %v", a))
	}
	if a >= float64(c) {
		panic(fmt.Sprintf("queueing: offered load %v ≥ servers %d has no steady state", a, c))
	}
	// Compute iteratively to avoid factorial overflow:
	// inv = Σ_{k=0}^{c-1} (c-a)/c · c!/(k! a^{c-k}) recast via term recurrence.
	term := 1.0 // a^k/k! relative to a^c/c!
	sum := 0.0
	// Build Σ_{k<c} a^k/k! and a^c/c! with a running term.
	akOverKFact := 1.0 // a^0/0!
	for k := 0; k < c; k++ {
		sum += akOverKFact
		akOverKFact *= a / float64(k+1)
	}
	acOverCFact := akOverKFact // now a^c/c!
	term = acOverCFact * float64(c) / (float64(c) - a)
	return term / (sum + term)
}

// MMcWait returns the mean queueing delay of an M/M/c queue:
// Wq = C(c, a) · s / (c − a).
func MMcWait(c int, lambda, s float64) float64 {
	a := float64(lambda * s)
	pWait := ErlangC(c, a)
	return pWait * s / (float64(c) - a)
}

// MDcWaitApprox returns the Allen–Cunneen approximation of the mean
// queueing delay of an M/D/c queue: with deterministic service the
// correction factor (C²a + C²s)/2 is 1/2 of the M/M/c wait. Exact for
// c = 1; within a few percent for the utilizations the validation uses.
func MDcWaitApprox(c int, lambda, s float64) float64 {
	return MMcWait(c, lambda, s) / 2
}

// BatchGeoMD1Wait returns the mean queueing delay of an M[X]/D/1 queue
// whose batch sizes are geometric with the given mean (≥ 1): the wait of
// the batch's first packet is the M/D/1 wait at the packet rate scaled by
// the batch-size second-moment factor, and packets later in a batch also
// wait for the service of those ahead of them. Used by the burstiness
// experiments as a single-station sanity bound.
//
// The standard decomposition: treat each batch as one M/G/1 customer
// with service B·s (Pollaczek–Khinchine on the batch process), plus the
// in-batch delay of a size-biased random packet,
// s·(E[B²]/E[B] − 1)/2. For geometric batches on {1, 2, …} with mean m,
// E[B²] = m(2m − 1).
func BatchGeoMD1Wait(lambda, s, meanBatch float64) float64 {
	if meanBatch < 1 {
		panic(fmt.Sprintf("queueing: mean batch %v below 1", meanBatch))
	}
	r := rho(lambda, s)
	m := meanBatch
	eb2 := m * (2*m - 1)
	lambdaBatch := lambda / m
	batchQueue := lambdaBatch * eb2 * s * s / (2 * (1 - r))
	withinBatch := float64(s * (eb2/m - 1) / 2)
	return batchQueue + withinBatch
}
