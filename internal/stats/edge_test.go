package stats

import (
	"math"
	"testing"
)

// TestAccumulatorEmptyDerived checks every derived statistic of the
// zero-value accumulator, not just the mean.
func TestAccumulatorEmptyDerived(t *testing.T) {
	var a Accumulator
	for name, got := range map[string]float64{
		"Mean": a.Mean(), "Sum": a.Sum(), "Variance": a.Variance(),
		"StdDev": a.StdDev(), "Min": a.Min(), "Max": a.Max(),
	} {
		if got != 0 {
			t.Errorf("empty accumulator %s = %v, want 0", name, got)
		}
	}
	if a.N() != 0 {
		t.Errorf("empty accumulator N = %d", a.N())
	}
}

// TestAccumulatorSingleNegative checks a lone negative sample: min and
// max must both take the value, and variance must stay exactly 0.
func TestAccumulatorSingleNegative(t *testing.T) {
	var a Accumulator
	a.Add(-3.5)
	if a.Min() != -3.5 || a.Max() != -3.5 {
		t.Errorf("min %v max %v, want both -3.5", a.Min(), a.Max())
	}
	if a.Variance() != 0 || a.StdDev() != 0 {
		t.Errorf("single sample variance %v stddev %v, want 0", a.Variance(), a.StdDev())
	}
	if a.Mean() != -3.5 || a.Sum() != -3.5 {
		t.Errorf("mean %v sum %v, want -3.5", a.Mean(), a.Sum())
	}
}

// TestTimeWeightedZeroLengthIntervals drives the integrator with
// repeated updates at the same instant: they contribute no area, the
// last value at the instant wins, and the mean stays well-defined.
func TestTimeWeightedZeroLengthIntervals(t *testing.T) {
	var w TimeWeighted
	w.Set(10, 5)
	w.Set(10, 50) // same instant: replaces the level, no area
	w.Set(10, 2)
	if got := w.Mean(10); got != 0 {
		t.Errorf("mean over a zero-length window = %v, want 0", got)
	}
	w.Set(20, 0)
	// Only the final level at t=10 (2) should have integrated.
	if got := w.Mean(20); math.Abs(got-2) > 1e-12 {
		t.Errorf("mean = %v, want 2 (zero-length intervals must not contribute)", got)
	}
	// A zero-length spike mid-run must also vanish.
	w.Set(25, 100)
	w.Set(25, 0)
	if got := w.Mean(30); math.Abs(got-1) > 1e-12 {
		t.Errorf("mean = %v, want 1 (instantaneous spike contributed area)", got)
	}
	if w.Value() != 0 {
		t.Errorf("current value %v, want 0", w.Value())
	}
}

// TestTimeWeightedMeanBeforeStart: querying at or before the priming
// time must return 0, not NaN from a 0/0 division.
func TestTimeWeightedMeanBeforeStart(t *testing.T) {
	var w TimeWeighted
	if got := w.Mean(5); got != 0 {
		t.Errorf("unprimed mean = %v, want 0", got)
	}
	w.Set(10, 7)
	for _, now := range []float64{10, 9, 0} {
		got := w.Mean(now)
		if got != 0 || math.IsNaN(got) {
			t.Errorf("Mean(%v) = %v, want 0", now, got)
		}
	}
}

// TestHistogramOutOfRange sends every observation outside [lo, hi) and
// checks the under/overflow accounting, the exact mean, and quantiles
// that clamp to the bounds.
func TestHistogramOutOfRange(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	h.Add(-5)    // underflow
	h.Add(-0.01) // just below lo
	h.Add(100)   // hi itself is out of range ([lo, hi) is half-open)
	h.Add(250)   // overflow
	if h.N() != 4 {
		t.Fatalf("N = %d, want 4", h.N())
	}
	for i, c := range h.Counts() {
		if c != 0 {
			t.Fatalf("bin %d holds %d out-of-range observations", i, c)
		}
	}
	if got := h.OverflowFraction(); got != 0.5 {
		t.Errorf("overflow fraction %v, want 0.5", got)
	}
	// Quantiles: underflow mass sits at lo, overflow at hi.
	if got := h.Quantile(0.25); got != 0 {
		t.Errorf("q25 = %v, want lo", got)
	}
	if got := h.Quantile(0.99); got != 100 {
		t.Errorf("q99 = %v, want hi", got)
	}
}

// TestHistogramBoundaryBin checks that lo lands in bin 0 and the value
// just below hi lands in the last bin (no index-out-of-range at the
// edges).
func TestHistogramBoundaryBin(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Add(0)
	h.Add(math.Nextafter(10, 0))
	c := h.Counts()
	if c[0] != 1 {
		t.Errorf("lo not in bin 0: %v", c)
	}
	if c[len(c)-1] != 1 {
		t.Errorf("hi-ε not in last bin: %v", c)
	}
	if h.OverflowFraction() != 0 {
		t.Errorf("in-range samples counted as overflow")
	}
}

// TestQuantileClamped checks that a quantile falling in the overflow
// mass is flagged as clamped (the returned value is the histogram's
// upper bound, a lower bound on the truth, not a measurement).
func TestQuantileClamped(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	for i := 0; i < 90; i++ {
		h.Add(50)
	}
	for i := 0; i < 10; i++ {
		h.Add(1e6) // overflow
	}
	if v, clamped := h.QuantileClamped(0.5); clamped || v == 100 {
		t.Errorf("q50 = (%v, %v), want in-range and unclamped", v, clamped)
	}
	if v, clamped := h.QuantileClamped(0.95); !clamped || v != 100 {
		t.Errorf("q95 = (%v, %v), want clamped at hi", v, clamped)
	}
	// Exactly at the overflow boundary: q = 0.90 is still representable.
	if _, clamped := h.QuantileClamped(0.90); clamped {
		t.Error("q90 flagged clamped at the exact boundary")
	}
	var empty Histogram
	if v, clamped := (&empty).QuantileClamped(0.95); clamped || v != 0 {
		t.Errorf("empty histogram = (%v, %v)", v, clamped)
	}
}
