// Package core implements the paper's analytic model of packet execution
// time under processor-cache affinity (Salehi, Kurose, Towsley, HPDC-4,
// 1995).
//
// The model answers one question: if a protocol footprint last executed on
// a processor some time ago, and intervening work (other protocol streams,
// or a general non-protocol workload) has issued R memory references on
// that processor since, how long will the next packet take to process
// there?
//
// It combines three published results, exactly as the paper does:
//
//   - The Singh–Stone–Thiebaut workload model [22]: the number of unique
//     memory lines touched by R references with line size L is
//     u(R, L) = W·L^a·R^b·d^(log L · log R), with constants fitted to a
//     multiprogrammed MVS trace (W=2.19827, a=0.033233, b=0.827457,
//     log d=−0.13025).
//
//   - The Thiebaut–Stone footprint displacement argument [25]: intervening
//     references map independently and uniformly into cache sets, so the
//     number landing in a given set is Binomial(u, 1/S) ≈ Poisson(u/S),
//     and a cached footprint line in an A-way set survives iff fewer than
//     A intervening lines landed in its set.
//
//   - The Squillante–Lazowska linear reload-transient interpolation [24]
//     (task time D + R·C), extended to the two-level R4400/SGI-Challenge
//     cache hierarchy:
//
//     T(x) = t_warm + F1(x)·(t_L1cold − t_warm) + F2(x)·(t_cold − t_L1cold)
package core

import (
	"fmt"

	"affinity/internal/xmath"
)

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeBytes int // total capacity
	LineBytes int // line (block) size
	Assoc     int // associativity; 1 = direct-mapped
}

// Sets returns the number of cache sets.
func (c CacheConfig) Sets() int {
	return c.SizeBytes / (c.LineBytes * c.Assoc)
}

// Validate reports a descriptive error for a malformed configuration.
func (c CacheConfig) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0:
		return fmt.Errorf("core: cache fields must be positive: %+v", c)
	case c.SizeBytes%(c.LineBytes*c.Assoc) != 0:
		return fmt.Errorf("core: cache size %d not divisible by line*assoc %d",
			c.SizeBytes, c.LineBytes*c.Assoc)
	}
	return nil
}

// Platform describes the multiprocessor's processors and cache hierarchy.
// The default models the paper's 8-processor SGI Challenge XL: 100 MHz
// MIPS R4400 with split 16 KB direct-mapped on-chip L1 (16-byte lines) and
// a 1 MB direct-mapped unified external L2 (128-byte lines), with an
// average of m = 5 clock cycles per memory reference.
type Platform struct {
	Processors     int
	ClockMHz       float64
	CyclesPerRef   float64 // m: average clock cycles per memory reference
	L1I, L1D, L2   CacheConfig
	L1SplitEvenRef bool // split the reference stream equally across L1I/L1D
}

// RefsPerMicrosecond returns the memory-reference issue rate of a fully
// busy processor.
func (p Platform) RefsPerMicrosecond() float64 {
	return p.ClockMHz / p.CyclesPerRef
}

// Validate reports a descriptive error for a malformed platform.
func (p Platform) Validate() error {
	if p.Processors <= 0 {
		return fmt.Errorf("core: processors must be positive, got %d", p.Processors)
	}
	if p.ClockMHz <= 0 || p.CyclesPerRef <= 0 {
		return fmt.Errorf("core: clock %v MHz / %v cycles-per-ref must be positive",
			p.ClockMHz, p.CyclesPerRef)
	}
	for _, c := range []CacheConfig{p.L1I, p.L1D, p.L2} {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// SGIChallengeXL returns the paper's experimental platform.
func SGIChallengeXL() Platform {
	return Platform{
		Processors:     8,
		ClockMHz:       100,
		CyclesPerRef:   5,
		L1I:            CacheConfig{SizeBytes: 16 << 10, LineBytes: 16, Assoc: 1},
		L1D:            CacheConfig{SizeBytes: 16 << 10, LineBytes: 16, Assoc: 1},
		L2:             CacheConfig{SizeBytes: 1 << 20, LineBytes: 128, Assoc: 1},
		L1SplitEvenRef: true,
	}
}

// WorkloadParams are the Singh–Stone–Thiebaut u(R, L) constants describing
// the locality of the displacing (non-protocol) reference stream.
type WorkloadParams struct {
	W    float64 // working-set scale
	A    float64 // spatial-locality exponent (on L)
	B    float64 // temporal-locality exponent (on R)
	LogD float64 // spatial–temporal interaction, log10 d
}

// MVSWorkload returns the published constants for the multiprogrammed
// IBM/370 MVS trace the paper adopts for its non-protocol activity.
func MVSWorkload() WorkloadParams {
	return WorkloadParams{W: 2.19827, A: 0.033233, B: 0.827457, LogD: -0.13025}
}

// UniqueLines evaluates u(R, L): the expected number of unique memory
// lines of size lineBytes touched by refs references of this workload.
// Logarithms are base 10, the base under which the published MVS
// constants produce unique-line counts consistent with the source data.
// The result is clamped to refs (a stream cannot touch more unique lines
// than it has references).
func (w WorkloadParams) UniqueLines(refs float64, lineBytes int) float64 {
	if refs <= 0 {
		return 0
	}
	if refs < 1 {
		refs = 1
	}
	l := float64(lineBytes)
	logL := xmath.Log10(l)
	logR := xmath.Log10(refs)
	u := w.W * xmath.Pow(l, w.A) * xmath.Pow(refs, w.B) * xmath.Pow(10, w.LogD*logL*logR)
	if u > refs {
		u = refs
	}
	if u < 0 {
		u = 0
	}
	return u
}

// DisplacedFraction returns F: the expected fraction of a resident cache
// footprint displaced from cache c by uniqueLines intervening unique
// lines, under the independent-set-mapping assumption. The count of
// intervening lines landing in a given set is Binomial(u, 1/S); a
// footprint line in an A-way LRU set survives iff fewer than A landed in
// its set, so F = P(X ≥ A). The binomial is evaluated through its
// Poisson(u/S) limit, which is indistinguishable at the S values of real
// caches.
func DisplacedFraction(uniqueLines float64, c CacheConfig) float64 {
	if uniqueLines <= 0 {
		return 0
	}
	lambda := uniqueLines / float64(c.Sets())
	return poissonTail(lambda, c.Assoc)
}

// poissonTail returns P(X ≥ k) for X ~ Poisson(lambda).
func poissonTail(lambda float64, k int) float64 {
	if lambda <= 0 {
		return 0
	}
	return poissonTailFrom(xmath.Exp(-lambda), lambda, k)
}

// poissonTailFrom is poissonTail for lambda > 0 given term = e^{−λ}.
func poissonTailFrom(term, lambda float64, k int) float64 {
	// P(X ≥ k) = 1 − Σ_{i<k} e^{−λ} λ^i / i!
	cdf := term
	for i := 1; i < k; i++ {
		term = float64(term * (lambda / float64(i)))
		cdf += term
	}
	if cdf > 1 {
		cdf = 1
	}
	return 1 - cdf
}
