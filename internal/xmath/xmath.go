// Package xmath holds the simulator's own Exp, Log, Log10 and Pow.
//
// The standard library's versions are assembly on some targets (amd64's
// Exp takes a fused multiply-add path when the CPU has one), so their
// last bit depends on the machine, and the fault-run fixtures print 17
// significant digits. These are pure Go, and every product that feeds a
// sum is wrapped in float64(...), which forbids the compiler to fuse it:
// every target computes the same bits. Exp and Log are also faster
// than math's on amd64, and more accurate: both stay within 0.51 ulp
// on TestAccuracy's samples.
//
// Exp and Log are table-driven with 128 subintervals per octave. Their
// tables are literals in table.go; TestTablesRegenerate rebuilds them
// from math/big and fails on any difference. Pow and Log10 are math's
// own algorithms on this package's Exp and Log, so internal/core's
// compiled cost model can run Pow's steps itself and still match Pow
// bit for bit.
package xmath

import "math"

const (
	expN   = 128                    // Exp's table size, subintervals of an octave
	shift  = 0x1.8p52               // adding it rounds a float64 below 2⁵¹ to an integer
	ln2hi  = 0x1.62e42ffp-01        // ln 2 rounded to a multiple of 2⁻³²
	ln2lo  = -0x1.718432a1b0e26p-35 // ln 2 − ln2hi
	invLn2 = 0x1.71547652b82fep0    // 1/ln 2

	// Taylor coefficients of e^r − 1 beyond r.
	expC2 = 1.0 / 2
	expC3 = 1.0 / 6
	expC4 = 1.0 / 24
	expC5 = 1.0 / 120
)

// Exp returns e^x. Its special cases are math.Exp's: Exp(+Inf) = +Inf,
// Exp(NaN) = NaN, and large negative arguments return 0.
//
// With k = round(x·128/ln 2) and r = x − k·ln 2/128, |r| ≤ ln 2/256,
// e^x = 2^(k/128)·e^r. The table holds 2^(j/128), j = k mod 128, as
// H_j·(1 + T_j), and stores H_j's bits minus j<<45, so one integer add
// of k<<45 makes the scale H_j·2^((k−j)/128). The result is
// scale + scale·(T_j + e^r − 1): every rounding but that last add's is
// below 2⁻⁶⁰ of the result.
func Exp(x float64) float64 {
	ix := math.Float64bits(x)
	top := ix >> 52 & 0x7ff
	scaled := false
	// One unsigned compare catches |x| < 2⁻⁵⁴ (top < 969) and
	// |x| ≥ 512 (top ≥ 1032), NaN and the infinities among them.
	if top-969 >= 1032-969 {
		switch {
		case top < 969:
			return 1 + x
		case x != x || x > math.MaxFloat64:
			return x
		case top >= 1033: // |x| ≥ 1024
			if x < 0 {
				return 0
			}
			return math.Inf(1)
		}
		scaled = true
	}
	// k·ln2hi/128 is exact: ln2hi has 32 significant bits and |k| < 2¹⁸,
	// and x − k·ln2hi/128 is exact too (Sterbenz).
	kd := float64(x*(expN*invLn2)) + shift
	ki := math.Float64bits(kd)
	kd -= shift
	r := x - float64(kd*(ln2hi/expN)) - float64(kd*(ln2lo/expN))
	e := &expTab[ki%expN]
	sbits := e.sbits + ki<<45
	// e^r − 1 to degree 5; the truncation error is below 2⁻⁶⁰.
	r2 := float64(r * r)
	tmp := math.Float64frombits(e.tail) + r + float64(r2*(expC2+float64(r*expC3))) +
		float64(float64(r2*r2)*(expC4+float64(r*expC5)))
	if scaled {
		return expScaled(tmp, sbits, x > 0)
	}
	scale := math.Float64frombits(sbits)
	return scale + float64(scale*tmp)
}

// expScaled finishes Exp for 512 ≤ |x| < 1024, where the scale's
// exponent leaves the normal range: it builds the result at a scale
// shifted by a power of two, so it rounds once, and shifts it back.
func expScaled(tmp float64, sbits uint64, pos bool) float64 {
	if pos {
		scale := math.Float64frombits(sbits - 1009<<52)
		return 0x1p1009 * (scale + float64(scale*tmp))
	}
	scale := math.Float64frombits(sbits + 1022<<52)
	y := scale + float64(scale*tmp)
	if y < 1 {
		// The result is subnormal. Round y at the subnormal precision,
		// 2⁻⁵² here, before the shift: y + 1 keeps exactly those bits,
		// and lo carries what the two roundings drop.
		lo := scale - y + float64(scale*tmp)
		hi := 1 + y
		lo = 1 - hi + y + lo
		y = (hi + lo) - 1
	}
	return 0x1p-1022 * y
}

// Log returns the natural logarithm of x. Its special cases are
// math.Log's: Log(+Inf) = +Inf, Log(0) = −Inf, Log(x < 0) = NaN and
// Log(NaN) = NaN.
//
// Write x = 2^k·f with f ∈ [√2/2, √2), take j = round((f − 1)·128) and
// c_j ≈ 1 + j/128 with 1/c_j rounded to 11 significant bits. Then
// log x = k·ln 2 + log(1/c_j) + log1p(r) with r = f/c_j − 1, and
// |r| < 0.006. The table holds log(1/c_j) as hi + lo with hi a multiple
// of 2⁻³², so k·ln2hi + hi is exact, and r is the sum of two exact
// terms: every rounding but the last add's is far below an ulp of the
// result.
func Log(x float64) float64 {
	ix := math.Float64bits(x)
	// One unsigned compare catches every x that is not a positive
	// normal: zeros, subnormals, negatives, the infinities and NaN.
	if ix-0x0010000000000000 >= 0x7ff0000000000000-0x0010000000000000 {
		switch {
		case x != x || x > math.MaxFloat64:
			return x
		case x < 0:
			return math.NaN()
		case x == 0:
			return math.Inf(-1)
		}
		// Subnormal: scale to normal; k below takes the 52 back.
		ix = math.Float64bits(x*0x1p52) - 52<<52
	}
	// k is the unbiased exponent of x relative to √2/2, so the
	// mantissa bits with the exponent of [√2/2, √2) make f.
	const sqrtHalf = 0x3fe6a09e667f3bcd
	k := int64(ix-sqrtHalf) >> 52
	fb := ix - uint64(k)<<52
	f := math.Float64frombits(fb)
	// round(f·128) − 91 indexes j = −37 … 53.
	n := math.Float64bits(float64(f*128)+shift) - math.Float64bits(shift)
	e := &logTab[n-91]
	// f·invc − 1 = (fhi·invc − 1) + flo·invc, where fhi keeps 41
	// significant bits: both terms are exact.
	fhi := math.Float64frombits(fb &^ 0xfff)
	flo := f - fhi
	r1 := float64(fhi*e.invc) - 1
	r0 := float64(flo * e.invc)
	r := r1 + r0
	// Fast2Sum: |w| ≥ |r1| unless w = 0, so w − s + r1 is exactly what
	// s dropped of w + r1; err adds r0 to it.
	kf := float64(k)
	w := float64(kf*ln2hi) + e.hi
	s := w + r1
	err := w - s + r1 + r0
	// log1p(r) − r to degree 8; the truncation error is below 2⁻⁶⁹.
	r2 := float64(r * r)
	p := float64(r2 * (-1.0/2 + float64(r*(1.0/3)) +
		float64(r2*(-1.0/4+float64(r*(1.0/5))+float64(r2*(-1.0/6+float64(r*(1.0/7))+float64(r2*(-1.0/8))))))))
	return s + (float64(kf*ln2lo) + e.lo + err + p)
}

// Log10 returns the decimal logarithm of x, as math.Log10 computes it:
// Log(x)·(1/ln 10).
func Log10(x float64) float64 {
	return Log(x) * (1 / math.Ln10)
}

// Pow returns x**y, with math.Pow's special cases.
//
// It is math.Pow's own algorithm on this package's Exp and Log:
// x^y = x^yf · x^yi with yf = Modf(|y|)'s fraction folded into
// [−½, ½], x^yf = Exp(yf·Log x), x^yi by square-and-multiply on
// Frexp(x), and the exponents gathered in one Ldexp.
func Pow(x, y float64) float64 {
	switch {
	case y == 0 || x == 1:
		return 1
	case y == 1:
		return x
	case math.IsNaN(x) || math.IsNaN(y):
		return math.NaN()
	case x == 0:
		switch {
		case y < 0:
			if math.Signbit(x) && isOddInt(y) {
				return math.Inf(-1)
			}
			return math.Inf(1)
		case y > 0:
			if math.Signbit(x) && isOddInt(y) {
				return x
			}
			return 0
		}
	case math.IsInf(y, 0):
		switch {
		case x == -1:
			return 1
		case (math.Abs(x) < 1) == math.IsInf(y, 1):
			return 0
		default:
			return math.Inf(1)
		}
	case math.IsInf(x, 0):
		if math.IsInf(x, -1) {
			return Pow(1/x, -y) // Pow(-0, -y)
		}
		switch {
		case y < 0:
			return 0
		case y > 0:
			return math.Inf(1)
		}
	case y == 0.5:
		return math.Sqrt(x)
	case y == -0.5:
		return 1 / math.Sqrt(x)
	}

	yi, yf := math.Modf(math.Abs(y))
	if yf != 0 && x < 0 {
		return math.NaN()
	}
	if yi >= 1<<63 {
		// yi is an even integer so large that x^yi under- or
		// overflows for every x but −1 (x = 1 returned above).
		switch {
		case x == -1:
			return 1
		case (math.Abs(x) < 1) == (y > 0):
			return 0
		default:
			return math.Inf(1)
		}
	}

	// ans = a1·2^ae.
	a1 := 1.0
	ae := 0
	if yf != 0 {
		if yf > 0.5 {
			yf--
			yi++
		}
		a1 = Exp(yf * Log(x))
	}
	x1, xe := math.Frexp(x)
	for i := int64(yi); i != 0; i >>= 1 {
		if xe < -1<<12 || 1<<12 < xe {
			// xe would overflow the shift below; i still has a bit
			// set, so ae is at least xe more and Ldexp under- or
			// overflows anyway.
			ae += xe
			break
		}
		if i&1 == 1 {
			a1 *= x1
			ae += xe
		}
		x1 = float64(x1 * x1)
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}
	if y < 0 {
		a1 = 1 / a1
		ae = -ae
	}
	return math.Ldexp(a1, ae)
}

// isOddInt reports whether x is an odd integer.
func isOddInt(x float64) bool {
	if math.Abs(x) >= 1<<53 {
		// Every float64 this large is an even integer.
		return false
	}
	xi, xf := math.Modf(x)
	return xf == 0 && int64(xi)&1 == 1
}
