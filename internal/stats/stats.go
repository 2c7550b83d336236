// Package stats provides the estimators used by the simulation study:
// streaming mean/variance accumulators, time-weighted averages for
// occupancy processes, batch-means confidence intervals for steady-state
// output analysis, and fixed-bin histograms for delay distributions.
package stats

import (
	"fmt"
	"math"
)

// Accumulator computes streaming count, mean and variance (Welford).
// The zero value is ready to use.
type Accumulator struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	if math.Abs(d) <= math.MaxFloat64 {
		a.mean += d / float64(a.n)
		a.m2 += float64(d * (x - a.mean))
		return
	}
	// d*d overflows too, so the sum of squares saturates.
	a.mean = welfordHalved(a.mean, x, a.n)
	a.m2 = math.Inf(1)
}

// welfordHalved is Welford's mean update for an observation whose
// difference from the mean overflows, which needs x and the mean at
// opposite ends of the float64 range. Adding d/n would make the mean
// ±Inf and, one observation later, NaN; halving both operands keeps
// every step finite, and the result lies between the mean and x.
func welfordHalved(mean, x float64, n uint64) float64 {
	return mean + float64((float64(x/2)-float64(mean/2))/float64(n)*2)
}

// N returns the observation count.
func (a *Accumulator) N() uint64 { return a.n }

// Mean returns the sample mean, or 0 with no observations.
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Min and Max return the observed extremes (0 with no observations).
func (a *Accumulator) Min() float64 { return a.min }
func (a *Accumulator) Max() float64 { return a.max }

// Mean computes a streaming count and mean: Accumulator's Welford
// mean update alone, bit for bit, for a caller that reads nothing else.
// The zero value is ready to use.
type Mean struct {
	n    uint64
	mean float64
}

// Add records one observation.
func (m *Mean) Add(x float64) {
	m.n++
	d := x - m.mean
	if math.Abs(d) <= math.MaxFloat64 {
		m.mean += d / float64(m.n)
		return
	}
	m.mean = welfordHalved(m.mean, x, m.n)
}

// N returns the observation count.
func (m *Mean) N() uint64 { return m.n }

// Mean returns the sample mean, or 0 with no observations.
func (m *Mean) Mean() float64 { return m.mean }

// TimeWeighted integrates a piecewise-constant process (queue length,
// busy servers) over simulation time.
type TimeWeighted struct {
	last   float64 // last update time
	value  float64 // current level
	area   float64
	start  float64
	primed bool
}

// Set updates the level at the given time.
func (w *TimeWeighted) Set(now, value float64) {
	if !w.primed {
		w.start, w.last, w.primed = now, now, true
	}
	if now < w.last {
		panic(fmt.Sprintf("stats: time went backwards: %v < %v", now, w.last))
	}
	w.area += float64((now - w.last) * w.value)
	w.last = now
	w.value = value
}

// Add adjusts the level by delta at the given time.
func (w *TimeWeighted) Add(now, delta float64) { w.Set(now, w.value+delta) }

// Value returns the current level.
func (w *TimeWeighted) Value() float64 { return w.value }

// Mean returns the time-average of the level up to now.
func (w *TimeWeighted) Mean(now float64) float64 {
	if !w.primed || now <= w.start {
		return 0
	}
	area := w.area + float64((now-w.last)*w.value)
	return area / (now - w.start)
}

// BatchMeans produces a steady-state confidence interval by the method of
// batch means: observations are grouped into fixed-size batches; the batch
// averages are treated as (approximately) independent samples.
type BatchMeans struct {
	batchSize uint64
	current   Mean // the batch in progress
	batches   Accumulator
}

// NewBatchMeans groups observations into batches of the given size.
func NewBatchMeans(batchSize uint64) *BatchMeans {
	if batchSize == 0 {
		panic("stats: zero batch size")
	}
	return &BatchMeans{batchSize: batchSize}
}

// Add records one observation.
func (b *BatchMeans) Add(x float64) {
	b.current.Add(x)
	if b.current.N() == b.batchSize {
		b.batches.Add(b.current.Mean())
		b.current = Mean{}
	}
}

// Batches returns the number of completed batches.
func (b *BatchMeans) Batches() uint64 { return b.batches.N() }

// Mean returns the grand mean over completed batches.
func (b *BatchMeans) Mean() float64 { return b.batches.Mean() }

// HalfWidth returns the half-width of an approximate 95% confidence
// interval on the mean. It requires at least 2 completed batches and uses
// a t-quantile approximation adequate for ≥10 batches.
func (b *BatchMeans) HalfWidth() float64 {
	k := b.batches.N()
	if k < 2 {
		return math.Inf(1)
	}
	return tQuantile975(int(k-1)) * b.batches.StdDev() / math.Sqrt(float64(k))
}

// tQuantile975 returns the 0.975 quantile of Student's t with df degrees
// of freedom (two-sided 95% interval), from a small table with normal
// tail beyond it.
func tQuantile975(df int) float64 {
	table := []float64{
		0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
		2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
		2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
		2.042,
	}
	if df <= 0 {
		return math.Inf(1)
	}
	if df < len(table) {
		return table[df]
	}
	if df < 60 {
		return 2.02
	}
	if df < 120 {
		return 2.00
	}
	return 1.96
}

// Histogram is a fixed-bin histogram over [lo, hi) with overflow and
// underflow counters, used for packet-delay distributions.
type Histogram struct {
	lo, hi float64
	bins   []uint64
	width  float64
	under  uint64
	over   uint64
	total  uint64
}

// NewHistogram covers [lo, hi) with n equal bins.
func NewHistogram(lo, hi float64, n int) *Histogram {
	if hi <= lo || n <= 0 {
		panic("stats: invalid histogram bounds")
	}
	return &Histogram{lo: lo, hi: hi, bins: make([]uint64, n), width: (hi - lo) / float64(n)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case x < h.lo:
		h.under++
	case x >= h.hi:
		h.over++
	default:
		h.bins[int((x-h.lo)/h.width)]++
	}
}

// N returns the total number of observations.
func (h *Histogram) N() uint64 { return h.total }

// Quantile returns an estimate of the q-quantile (0 < q < 1) by linear
// interpolation within the containing bin. Underflow mass is treated as
// sitting at lo and overflow mass at hi.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.lo
	}
	if q >= 1 {
		return h.hi
	}
	target := float64(q * float64(h.total))
	cum := float64(h.under)
	if cum >= target {
		return h.lo
	}
	for i, c := range h.bins {
		next := cum + float64(c)
		if next >= target && c > 0 {
			frac := (target - cum) / float64(c)
			return h.lo + float64((float64(i)+frac)*h.width)
		}
		cum = next
	}
	return h.hi
}

// QuantileClamped returns the q-quantile estimate along with whether the
// estimate was clamped to the histogram's upper bound because the
// quantile lies in the overflow mass (observations ≥ hi). A clamped
// value is a lower bound on the true quantile, not a measurement.
func (h *Histogram) QuantileClamped(q float64) (float64, bool) {
	v := h.Quantile(q)
	clamped := h.total > 0 && q > 0 && q < 1 &&
		float64(h.total-h.over) < q*float64(h.total)
	return v, clamped
}

// Counts returns a copy of the bin counts.
func (h *Histogram) Counts() []uint64 {
	out := make([]uint64, len(h.bins))
	copy(out, h.bins)
	return out
}

// OverflowFraction returns the share of observations at or above hi.
func (h *Histogram) OverflowFraction() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.over) / float64(h.total)
}
