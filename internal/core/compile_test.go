package core

import (
	"math"
	"testing"
	"testing/quick"
)

// withB returns the default model with the temporal-locality exponent
// replaced, so the powers refs^b take math.Pow (b ∈ {0, ±0.5, 1}), the
// exact Exp·refs form (integer part 1 after pow's fold, b > 0) or
// powJoin's integer-part loop (every other b).
func withB(b float64) *Model {
	m := NewModel()
	m.Workload.B = b
	return m
}

// checkBits fails t unless the compiled and interpreted evaluations of
// refs agree bit for bit.
func checkBits(t testing.TB, name string, m *Model, e *Exec, refs float64) {
	t.Helper()
	te, f1 := e.ExecTimeF1(refs)
	if got, want := math.Float64bits(te), math.Float64bits(m.ExecTime(refs)); got != want {
		t.Fatalf("%s: Compile().ExecTime(%v) = %v, want %v", name, refs, te, m.ExecTime(refs))
	}
	if got, want := math.Float64bits(f1), math.Float64bits(m.F1(refs)); got != want {
		t.Fatalf("%s: Compile().F1(%v) = %v, want %v", name, refs, f1, m.F1(refs))
	}
	checkFractions(t, name, m, e, refs)
}

// checkFractions is checkBits for F1 and F2 alone, the two values
// ExecTime combines; the dense sweeps use it to halve their cost.
func checkFractions(t testing.TB, name string, m *Model, e *Exec, refs float64) {
	t.Helper()
	f1, f2 := e.fractions(refs)
	if got, want := math.Float64bits(f1), math.Float64bits(m.F1(refs)); got != want {
		t.Fatalf("%s: Compile() F1(%v) = %v, want %v", name, refs, f1, m.F1(refs))
	}
	if got, want := math.Float64bits(f2), math.Float64bits(m.F2(refs)); got != want {
		t.Fatalf("%s: Compile() F2(%v) = %v, want %v", name, refs, f2, m.F2(refs))
	}
}

// The compiled evaluator must be bit-for-bit identical to the
// interpreted model: the simulator's results (and the committed golden
// file) depend on it.
func TestCompileBitIdentical(t *testing.T) {
	models := map[string]*Model{
		"default": NewModel(),
		"send":    NewSendModel(),
		"tcp":     NewTCPModel(),
		"b=0":     withB(0),
		"b=0.5":   withB(0.5),
		"b=1":     withB(1),
		"b=-0.5":  withB(-0.5),
		"b=1.7":   withB(1.7),
		"b=-1.2":  withB(-1.2),
		"b=0.3":   withB(0.3), // integer part 0: x^b is the Exp alone
		"b=1.2":   withB(1.2), // integer part 1 with b > 1: Exp·refs
	}
	// A platform whose L1 halves differ and one without the split
	// reference stream, to cover the non-deduplicated paths.
	uneven := NewModel()
	uneven.Platform.L1I = CacheConfig{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 2}
	models["unevenL1"] = uneven
	unsplit := NewModel()
	unsplit.Platform.L1SplitEvenRef = false
	models["unsplit"] = unsplit
	// A 4-way L2, so the pass runs the Poisson tail's sum.
	assoc4 := NewModel()
	assoc4.Platform.L2 = CacheConfig{SizeBytes: 1 << 20, LineBytes: 128, Assoc: 4}
	models["l2assoc4"] = assoc4
	// LogD = 0 makes every 10^y a 10^0, which math.Pow special-cases.
	logD0 := NewModel()
	logD0.Workload.LogD = 0
	models["logD=0"] = logD0

	probes := []float64{0, -1, 0.5, 1, 2, 10, 1e3, 1e4, 123456.789,
		1e6, 1e9, 1e15, math.Inf(1), math.NaN(),
		// refs/2 crosses the clamp at 1 between refs 1 and 2.
		math.Nextafter(1, 0), math.Nextafter(1, 2),
		math.Nextafter(2, 0), math.Nextafter(2, 3),
		// The smallest subnormal halves to 0, so the split L1 idles
		// while the L2 clamps to 1; the largest float overflows
		// refs^b when b > 1.
		math.SmallestNonzeroFloat64, math.MaxFloat64,
		// Under b = -1.2 the L2's u is subnormal, and u/S underflows
		// to 0, which poissonTail refuses.
		1.2618275348279158e+217}
	for name, m := range models {
		e := m.Compile()
		for _, x := range probes {
			checkBits(t, name, m, e, x)
		}
		// Property: identical across the continuum, not just the probes.
		err := quick.Check(func(x float64) bool {
			x = math.Abs(x)
			te, f1 := e.ExecTimeF1(x)
			return te == m.ExecTime(x) && f1 == m.F1(x)
		}, &quick.Config{MaxCount: 2000})
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		// A log-spaced sweep over [1e-3, 1e18]: dense on the default
		// model, which every simulation charges, sparser on the rest.
		n := 1_000_000
		if name != "default" {
			n = 10_000
		}
		for i := 0; i <= n; i++ {
			checkFractions(t, name, m, e, math.Pow(10, -3+21*float64(i)/float64(n)))
		}
	}
	// Integer reference counts, which a fixed-rate workload hits often.
	m := models["default"]
	e := m.Compile()
	for i := 0; i <= 100_000; i++ {
		checkFractions(t, "default", m, e, float64(i))
	}
}

// powLn is math.Pow(x, y) given lnx = math.Log(x), composed from the
// pass's stages the way fractions composes each power: powSplit, the
// Exp, frexp and powJoin, with every input pow special-cases handed to
// math.Pow.
func powLn(x, lnx, y float64) float64 {
	yf, yi, ok := powSplit(y)
	if !ok || x == 1 || !(x > 0) || math.IsInf(x, 1) {
		return math.Pow(x, y)
	}
	a1 := 1.0
	if yf != 0 {
		a1 = math.Exp(yf * lnx)
	}
	x1, xe := frexp(x)
	return powJoin(a1, x1, xe, yi, y < 0)
}

// powLn must return math.Pow's exact bits, on the special cases it
// hands to math.Pow, on the general path the pass runs and on the
// fallbacks of that path: subnormal bases go through math.Frexp, and
// results that leave the normal range through math.Ldexp.
func TestPowLnMatchesPow(t *testing.T) {
	xs := []float64{1, 2, 10, 1e-300, 1e300,
		math.SmallestNonzeroFloat64, 3e-310, 0x1p-1023, math.MaxFloat64}
	ys := []float64{0, 0.5, -0.5, 1, -1, 2, -2, 0.827457, -0.827457,
		63.5, -63.5, 1e20, -1e20, math.NaN(), math.Inf(1), math.Inf(-1),
		// 2^y lands below, inside and above the normal range; with
		// the other bases, 0.7 and 1.3 leave it near the ends.
		-1074.5, -1074, -1060.25, -1022.5, -1021.75, 1023.5, 1024.25,
		0.7, 1.3, 3, -3}
	for _, x := range xs {
		for _, y := range ys {
			got, want := powLn(x, math.Log(x), y), math.Pow(x, y)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("powLn(%v, Log(%v), %v) = %v, want %v", x, x, y, got, want)
			}
		}
	}
	err := quick.Check(func(x, y float64) bool {
		x = math.Abs(x)
		y = math.Mod(y, 64)
		return math.Float64bits(powLn(x, math.Log(x), y)) == math.Float64bits(math.Pow(x, y))
	}, &quick.Config{MaxCount: 20000})
	if err != nil {
		t.Error(err)
	}
}

// FuzzExecCompiled compares the compiled evaluator against the
// interpreted model bit for bit over fuzzed reference counts, workload
// exponents (B, the temporal-locality exponent, and LogD, the
// spatial–temporal interaction) and L2 associativities.
func FuzzExecCompiled(f *testing.F) {
	mvs := MVSWorkload()
	f.Add(1e4, mvs.B, mvs.LogD, uint8(0))
	f.Add(0.5, mvs.B, mvs.LogD, uint8(0))
	f.Add(123456.789, 1.7, mvs.LogD, uint8(1))
	f.Add(1e18, -1.2, -2.5, uint8(7))
	f.Add(3e7, 0.5, 0.0, uint8(0))
	f.Add(42.0, 1.0, 7.0, uint8(3))
	f.Add(2.5e5, mvs.B, mvs.LogD, uint8(15))
	f.Fuzz(func(t *testing.T, refs, b, logD float64, l2Assoc uint8) {
		m := NewModel()
		m.Workload.B = b
		m.Workload.LogD = logD
		// Associativity 1 to 16 at the L2's 8,192 sets, so the Poisson
		// tail sums up to 16 terms.
		a := 1 + int(l2Assoc%16)
		m.Platform.L2 = CacheConfig{SizeBytes: a << 20, LineBytes: 128, Assoc: a}
		checkBits(t, "fuzz", m, m.Compile(), refs)
	})
}
