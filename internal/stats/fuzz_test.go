package stats

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzBatchMeans feeds arbitrary observation streams through the
// BatchMeans estimator, the Accumulator underneath it, and the delay
// Histogram, and checks the estimator contracts the simulator relies on
// when deciding to stop a run:
//
//   - the grand mean stays inside [min, max] of the inputs
//   - variance and half-widths are never negative or NaN (infinite only
//     below 2 completed batches or on a zero mean)
//   - quantiles are monotone in q, bounded by [lo, hi], and
//     QuantileClamped flags exactly the overflow-mass quantiles
//   - cumulative bin counts, underflow and overflow account for every
//     observation
func FuzzBatchMeans(f *testing.F) {
	le := binary.LittleEndian
	mk := func(batch uint16, xs ...float64) []byte {
		b := make([]byte, 2, 2+8*len(xs))
		le.PutUint16(b, batch)
		for _, x := range xs {
			b = le.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(mk(1))
	f.Add(mk(1, 0))
	f.Add(mk(4, 1, 2, 3, 4, 5, 6, 7, 8))
	f.Add(mk(2, 100, 100, 100, 100)) // zero-variance batches
	f.Add(mk(3, -50, 1e12, 0.5, 99_999.99, 100_000, 200_000))
	f.Add(mk(1, 1e-300, 1e300, -1e300))
	f.Add(mk(65535, 42))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		batchSize := uint64(le.Uint16(data[:2]))
		if batchSize == 0 {
			batchSize = 1
		}
		data = data[2:]

		bm := NewBatchMeans(batchSize)
		h := NewHistogram(0, 100_000, 1_000)
		var acc Accumulator
		n := 0
		for ; len(data) >= 8; data = data[8:] {
			x := math.Float64frombits(le.Uint64(data[:8]))
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue // delays are always finite; NaN poisons any mean
			}
			bm.Add(x)
			acc.Add(x)
			h.Add(x)
			n++
		}
		if n == 0 {
			return
		}

		if acc.N() != uint64(n) || h.N() != uint64(n) {
			t.Fatalf("N: acc=%d hist=%d, fed %d", acc.N(), h.N(), n)
		}
		if m := acc.Mean(); m < acc.Min() && !closeRank(m, acc.Min()) ||
			m > acc.Max() && !closeRank(m, acc.Max()) {
			t.Fatalf("mean %v outside [%v, %v]", m, acc.Min(), acc.Max())
		}
		if v := acc.Variance(); v < 0 || math.IsNaN(v) {
			t.Fatalf("variance = %v", v)
		}

		if k := bm.Batches(); k != uint64(n)/batchSize {
			t.Fatalf("batches = %d, want %d", k, uint64(n)/batchSize)
		}
		hw := bm.HalfWidth()
		if math.IsNaN(hw) || hw < 0 {
			t.Fatalf("half-width = %v", hw)
		}
		if bm.Batches() < 2 && !math.IsInf(hw, 1) {
			t.Fatalf("half-width %v finite with %d batches", hw, bm.Batches())
		}
		if bm.Batches() > 0 {
			if m := bm.Mean(); m < acc.Min() && !closeRank(m, acc.Min()) ||
				m > acc.Max() && !closeRank(m, acc.Max()) {
				t.Fatalf("grand mean %v outside [%v, %v]", m, acc.Min(), acc.Max())
			}
		}

		// Quantiles: bounded and monotone.
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
			v := h.Quantile(q)
			if v < 0 || v > 100_000 || math.IsNaN(v) {
				t.Fatalf("quantile(%v) = %v out of range", q, v)
			}
			if v < prev {
				t.Fatalf("quantile(%v) = %v < previous %v", q, v, prev)
			}
			prev = v
		}
		if v, clamped := h.QuantileClamped(0.95); clamped {
			if v != 100_000 && h.OverflowFraction() < 0.05 {
				t.Fatalf("clamped quantile %v with overflow %v", v, h.OverflowFraction())
			}
		}
		if of := h.OverflowFraction(); of < 0 || of > 1 {
			t.Fatalf("overflow fraction = %v", of)
		}

		var binned uint64
		for _, c := range h.Counts() {
			binned += c
		}
		if binned > h.N() {
			t.Fatalf("bins hold %d of %d observations", binned, h.N())
		}
	})
}

// closeRank tolerates the few ULPs of drift Welford's running mean can
// accumulate past the extreme observation on adversarial inputs.
func closeRank(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}
