package xmath

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// prec is the working precision of the math/big references, in bits.
const prec = 200

func bigf(x float64) *big.Float { return new(big.Float).SetPrec(prec).SetFloat64(x) }

// bigAtanh returns atanh z = Σ z^(2i+1)/(2i+1) for |z| < ½.
func bigAtanh(z *big.Float) *big.Float {
	sum := new(big.Float).SetPrec(prec).Set(z)
	z2 := new(big.Float).SetPrec(prec).Mul(z, z)
	pow := new(big.Float).SetPrec(prec).Set(z)
	term := new(big.Float).SetPrec(prec)
	for i := int64(3); ; i += 2 {
		pow.Mul(pow, z2)
		term.Quo(pow, new(big.Float).SetInt64(i))
		if term.Sign() == 0 || term.MantExp(nil) < sum.MantExp(nil)-prec-8 {
			return sum
		}
		sum.Add(sum, term)
	}
}

// bigLn2 returns ln 2 = 2·atanh(1/3).
func bigLn2() *big.Float {
	third := new(big.Float).SetPrec(prec).Quo(bigf(1), bigf(3))
	return new(big.Float).SetPrec(prec).SetMantExp(bigAtanh(third), 1)
}

var ln2Ref = bigLn2()

// bigLog returns log x for x > 0: with x = m·2^e, m ∈ [√2/2, √2),
// log x = e·ln 2 + 2·atanh((m − 1)/(m + 1)).
func bigLog(x *big.Float) *big.Float {
	m := new(big.Float).SetPrec(prec)
	e := x.MantExp(m) // m ∈ [½, 1)
	if m.Cmp(bigf(math.Sqrt2/2)) < 0 {
		m.SetMantExp(m, 1)
		e--
	}
	num := new(big.Float).SetPrec(prec).Sub(m, bigf(1))
	den := new(big.Float).SetPrec(prec).Add(m, bigf(1))
	z := num.Quo(num, den)
	l := new(big.Float).SetPrec(prec).SetMantExp(bigAtanh(z), 1)
	k := new(big.Float).SetPrec(prec).Mul(ln2Ref, new(big.Float).SetInt64(int64(e)))
	return l.Add(l, k)
}

// bigExp returns e^x: x = k·ln 2 + r with |r| ≤ ln 2/2, e^r by its
// Taylor series at r/256, squared back eight times, times 2^k.
func bigExp(x *big.Float) *big.Float {
	q, _ := new(big.Float).Quo(x, ln2Ref).Float64()
	k := math.Round(q)
	r := new(big.Float).SetPrec(prec).Mul(ln2Ref, bigf(k))
	r.Sub(x, r)
	r.SetMantExp(r, -8)
	sum := bigf(1)
	term := bigf(1)
	for n := int64(1); ; n++ {
		term.Mul(term, r)
		term.Quo(term, new(big.Float).SetInt64(n))
		if term.Sign() == 0 || term.MantExp(nil) < -prec-8 {
			break
		}
		sum.Add(sum, term)
	}
	for i := 0; i < 8; i++ {
		sum.Mul(sum, sum)
	}
	return sum.SetMantExp(sum, int(k))
}

// roundBits returns x rounded to the nearest multiple of 2^-b.
func roundBits(x *big.Float, b int) *big.Float {
	if x.Sign() == 0 {
		return new(big.Float)
	}
	p := x.MantExp(nil) + b
	return new(big.Float).SetPrec(uint(p)).SetMode(big.ToNearestEven).Set(x)
}

func float(x *big.Float) float64 {
	f, _ := x.Float64()
	return f
}

// TestTablesRegenerate rebuilds table.go's literals and the package's
// constants from math/big and fails on any difference.
func TestTablesRegenerate(t *testing.T) {
	hi := roundBits(ln2Ref, 32)
	if got, want := float64(ln2hi), float(hi); got != want {
		t.Errorf("ln2hi = %x, want %x", got, want)
	}
	if got, want := float64(ln2lo), float(new(big.Float).Sub(ln2Ref, hi)); got != want {
		t.Errorf("ln2lo = %x, want %x", got, want)
	}
	if got, want := float64(invLn2), float(new(big.Float).SetPrec(prec).Quo(bigf(1), ln2Ref)); got != want {
		t.Errorf("invLn2 = %x, want %x", got, want)
	}

	// 2^(1/128) by seven square roots of 2, and its powers.
	root := bigf(2)
	for i := 0; i < 7; i++ {
		root.Sqrt(root)
	}
	v := bigf(1)
	for j := range expTab {
		h := float(v)
		tail := new(big.Float).SetPrec(prec).Sub(v, bigf(h))
		tail.Quo(tail, bigf(h))
		want := struct{ tail, sbits uint64 }{
			math.Float64bits(float(tail)),
			math.Float64bits(h) - uint64(j)<<45,
		}
		if expTab[j] != want {
			t.Errorf("expTab[%d] = {%#x, %#x}, want {%#x, %#x}",
				j, expTab[j].tail, expTab[j].sbits, want.tail, want.sbits)
		}
		v.Mul(v, root)
	}

	for i := range logTab {
		c := int64(128 + i - 37)   // 128·c_j
		n := (1<<18 + c) / (2 * c) // round(1024/c_j), never a tie
		invc := float64(n) / 1024
		l := bigLog(bigf(invc))
		l.Neg(l)
		h := roundBits(l, 32)
		want := struct{ invc, hi, lo float64 }{invc, float(h), float(new(big.Float).Sub(l, h))}
		if logTab[i] != want {
			t.Errorf("logTab[%d] = {%x, %x, %x}, want {%x, %x, %x}", i,
				logTab[i].invc, logTab[i].hi, logTab[i].lo, want.invc, want.hi, want.lo)
		}
	}
}

// ulps returns |got − want| in units of the last place of want.
func ulps(got float64, want *big.Float) float64 {
	if w := float(want); math.IsInf(w, 0) {
		if got == w {
			return 0
		}
		return math.Inf(1)
	}
	if want.Sign() == 0 {
		return math.Abs(got) / math.SmallestNonzeroFloat64
	}
	// |want| ∈ [2^(e−1), 2^e): its ulp is 2^(e−53), or 2⁻¹⁰⁷⁴ below
	// the normal range.
	e := want.MantExp(nil) - 53
	if e < -1074 {
		e = -1074
	}
	d := new(big.Float).SetPrec(prec).Sub(bigf(got), want)
	d.Abs(d)
	return float(d.SetMantExp(d, -e))
}

// accuracyCase is one sample set of a routine's accuracy check.
type accuracyCase struct {
	name string
	gen  func(r *rand.Rand) float64
}

// maxErr returns the largest ulp error of f and of ref on the same
// samples of every case.
func maxErr(t *testing.T, cases []accuracyCase, n int, f, ref func(float64) float64, exact func(*big.Float) *big.Float) (got, std float64) {
	for _, c := range cases {
		r := rand.New(rand.NewSource(1))
		var g, s float64
		for i := 0; i < n; i++ {
			x := c.gen(r)
			want := exact(bigf(x))
			g = max(g, ulps(f(x), want))
			s = max(s, ulps(ref(x), want))
		}
		t.Logf("%s: max error %.3f ulp (math: %.3f)", c.name, g, s)
		got, std = max(got, g), max(std, s)
	}
	return got, std
}

// TestAccuracy measures Exp and Log against the math/big references,
// and holds each to no more error than math's on the same samples and
// to maxULP. The samples and the routines' results are the same bits
// on every target, so only math's side varies.
func TestAccuracy(t *testing.T) {
	const n, maxULP = 10000, 0.51
	uniform := func(lo, hi float64) func(*rand.Rand) float64 {
		return func(r *rand.Rand) float64 { return lo + float64((hi-lo)*r.Float64()) }
	}
	got, std := maxErr(t, []accuracyCase{
		{"Exp on [−745, 710]", uniform(-745, 710)},
		{"Exp on [−2, 2]", uniform(-2, 2)},
		{"Exp on |x| < 1e-3", uniform(-1e-3, 1e-3)},
	}, n, Exp, math.Exp, bigExp)
	if got > std || got > maxULP {
		t.Errorf("Exp: max error %.3f ulp, want at most math.Exp's %.3f and %v", got, std, maxULP)
	}
	got, std = maxErr(t, []accuracyCase{
		{"Log on [1e-6, 1e6]", func(r *rand.Rand) float64 { return Pow(10, -6+float64(12*r.Float64())) }},
		{"Log on 1 ± 0.01", uniform(0.99, 1.01)},
	}, n, Log, math.Log, bigLog)
	if got > std || got > maxULP {
		t.Errorf("Log: max error %.3f ulp, want at most math.Log's %.3f and %v", got, std, maxULP)
	}
}

// checkRounded fails t unless f(x) is the correctly rounded value of
// the reference.
func checkRounded(t *testing.T, name string, f func(float64) float64, exact func(*big.Float) *big.Float, x float64) {
	t.Helper()
	if got, want := f(x), float(exact(bigf(x))); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s(%v) = %v, want %v", name, x, got, want)
	}
}

// checkSame fails t unless got and want have the same bits, or are
// both NaN.
func checkSame(t *testing.T, call string, got, want float64) {
	t.Helper()
	if math.IsNaN(want) && math.IsNaN(got) {
		return
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s = %v (%#x), want %v (%#x)", call, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func TestExpSpecial(t *testing.T) {
	// A NaN argument comes back as it is, as from math.Exp.
	nan := math.Float64frombits(0x7ff8000000000123)
	if got := Exp(nan); math.Float64bits(got) != math.Float64bits(nan) {
		t.Errorf("Exp(%#x) = %#x", math.Float64bits(nan), math.Float64bits(got))
	}
	for _, c := range []struct{ x, want float64 }{
		{math.Inf(1), math.Inf(1)},
		{math.Inf(-1), 0},
		{0, 1},
		{math.Copysign(0, -1), 1},
		// |x| < 2⁻⁵⁴ returns 1 + x; subnormal x among them.
		{0x1p-55, 1},
		{-0x1p-55, 1},
		{math.SmallestNonzeroFloat64, 1},
		{-math.SmallestNonzeroFloat64, 1},
		{1024, math.Inf(1)},
		{-1024, 0},
		{math.MaxFloat64, math.Inf(1)},
		{-math.MaxFloat64, 0},
	} {
		checkSame(t, fmt.Sprintf("Exp(%v)", c.x), Exp(c.x), c.want)
	}
	// Overflow sits between math's threshold and the next float64;
	// underflow to 0 below math's threshold, and subnormal results
	// above it. The scaled path's ends, the table path's ends and
	// 2⁻⁵⁴ are rounded correctly too.
	over, under := 7.09782712893383973096e+02, -7.45133219101941108420e+02
	if got := Exp(math.Nextafter(over, 1000)); !math.IsInf(got, 1) {
		t.Errorf("Exp above the overflow threshold = %v, want +Inf", got)
	}
	if got := Exp(math.Nextafter(under, -1000)); got != 0 {
		t.Errorf("Exp below the underflow threshold = %v, want 0", got)
	}
	for _, x := range []float64{
		over, math.Nextafter(over, 0), under, math.Nextafter(under, 0),
		-744.4400719213812, -740, -720, -708.5, -708.3964185322641,
		-512, math.Nextafter(-512, 0), 512, math.Nextafter(512, 0),
		0x1p-54, -0x1p-54, math.Nextafter(0x1p-54, 1), 1, -1, 100.5,
	} {
		checkRounded(t, "Exp", Exp, bigExp, x)
	}
}

func TestLogSpecial(t *testing.T) {
	nan := math.Float64frombits(0x7ff8000000000123)
	if got := Log(nan); math.Float64bits(got) != math.Float64bits(nan) {
		t.Errorf("Log(%#x) = %#x", math.Float64bits(nan), math.Float64bits(got))
	}
	checkSame(t, "Log(1)", Log(1), 0)
	for _, c := range []struct{ x, want float64 }{
		{math.Inf(1), math.Inf(1)},
		{0, math.Inf(-1)},
		{math.Copysign(0, -1), math.Inf(-1)},
	} {
		checkSame(t, fmt.Sprintf("Log(%v)", c.x), Log(c.x), c.want)
		checkSame(t, fmt.Sprintf("Log10(%v)", c.x), Log10(c.x), c.want)
	}
	for _, x := range []float64{-1, -math.SmallestNonzeroFloat64, math.Inf(-1), -math.MaxFloat64} {
		if got := Log(x); !math.IsNaN(got) {
			t.Errorf("Log(%v) = %v, want NaN", x, got)
		}
		if got := Log10(x); !math.IsNaN(got) {
			t.Errorf("Log10(%v) = %v, want NaN", x, got)
		}
	}
	// Subnormal inputs, both ends of the normal range, and the ends of
	// f's interval [√2/2, √2).
	for _, x := range []float64{
		math.SmallestNonzeroFloat64, 3e-310, math.Nextafter(0x1p-1022, 0),
		0x1p-1022, math.MaxFloat64, math.Sqrt2 / 2, math.Nextafter(math.Sqrt2/2, 0),
		math.Sqrt2, math.Nextafter(math.Sqrt2, 0), math.Nextafter(1, 0), math.Nextafter(1, 2),
		2, 10, 0.5,
	} {
		checkRounded(t, "Log", Log, bigLog, x)
	}
}

// TestPowSpecial runs math.Pow's table of special cases, and exact
// results of its integer and square-root paths.
func TestPowSpecial(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	negZero := math.Copysign(0, -1)
	for _, c := range []struct{ x, y, want float64 }{
		{nan, 0, 1}, {nan, negZero, 1}, // Pow(x, ±0) = 1 for any x
		{1, nan, 1}, {1, inf, 1}, // Pow(1, y) = 1 for any y
		{nan, 1, nan}, {-3, 1, -3}, // Pow(x, 1) = x for any x
		{nan, 2, nan}, {2, nan, nan},
		{0, -3, inf}, {negZero, -3, -inf}, // odd integer y < 0
		{0, -inf, inf}, {negZero, -inf, inf},
		{0, inf, 0}, {negZero, inf, 0},
		{0, -2, inf}, {negZero, -0.5, inf}, {negZero, -2.5, inf}, // finite y < 0, not odd
		{0, 3, 0}, {negZero, 3, negZero}, // odd integer y > 0
		{0, 2.5, 0}, {negZero, 2, 0}, // finite y > 0, not odd
		{-1, inf, 1}, {-1, -inf, 1},
		{2, inf, inf}, {-2, inf, inf}, {2, -inf, 0},
		{0.5, inf, 0}, {-0.5, -inf, inf},
		{inf, 2.5, inf}, {inf, -2.5, 0},
		{-inf, 3, -inf}, {-inf, -3, negZero}, {-inf, 2, inf}, // Pow(−Inf, y) = Pow(−0, −y)
		{-2, 0.5, nan}, {-8, 1.0 / 3, nan}, // finite x < 0, finite non-integer y
		{4, 0.5, 2}, {4, -0.5, 0.5},
		{-2, 3, -8}, {10, 3, 1000}, {2, -2, 0.25}, {2, 1023, 0x1p1023}, {2, -1074, 0x1p-1074},
		{2, 1 << 63, inf}, {0.5, 1 << 63, 0}, {-1, 1 << 63, 1}, {2, -(1 << 63), 0}, // |y| ≥ 2⁶³
	} {
		checkSame(t, fmt.Sprintf("Pow(%v, %v)", c.x, c.y), Pow(c.x, c.y), c.want)
	}
}
