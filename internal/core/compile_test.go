package core

import (
	"math"
	"testing"
	"testing/quick"
)

// withB returns the default model with the temporal-locality exponent
// replaced, so the powers refs^b take powLn's fallback (b ∈ {0, ±0.5, 1})
// or its integer-part loop (|b| > 1).
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
	if got, want := math.Float64bits(e.F1(refs)), math.Float64bits(m.F1(refs)); got != want {
		t.Fatalf("%s: Compile().F1(%v) = %v, want %v", name, refs, e.F1(refs), m.F1(refs))
	}
	if got, want := math.Float64bits(e.F2(refs)), math.Float64bits(m.F2(refs)); got != want {
		t.Fatalf("%s: Compile().F2(%v) = %v, want %v", name, refs, e.F2(refs), m.F2(refs))
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
	}
	// A platform whose L1 halves differ and one without the split
	// reference stream, to cover the non-deduplicated paths.
	uneven := NewModel()
	uneven.Platform.L1I = CacheConfig{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 2}
	models["unevenL1"] = uneven
	unsplit := NewModel()
	unsplit.Platform.L1SplitEvenRef = false
	models["unsplit"] = unsplit

	probes := []float64{0, -1, 0.5, 1, 2, 10, 1e3, 1e4, 123456.789,
		1e6, 1e9, 1e15, math.Inf(1)}
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

// powLn must return math.Pow's exact bits, on the special cases it
// hands to math.Pow and on the general path it reimplements.
func TestPowLnMatchesPow(t *testing.T) {
	xs := []float64{1, 2, 10, 1e-300, 1e300}
	ys := []float64{0, 0.5, -0.5, 1, -1, 2, -2, 0.827457, -0.827457,
		63.5, -63.5, 1e20, -1e20, math.NaN(), math.Inf(1), math.Inf(-1)}
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
// interpreted model bit for bit over fuzzed reference counts and
// workload exponents (B, the temporal-locality exponent, and LogD, the
// spatial–temporal interaction).
func FuzzExecCompiled(f *testing.F) {
	mvs := MVSWorkload()
	f.Add(1e4, mvs.B, mvs.LogD)
	f.Add(0.5, mvs.B, mvs.LogD)
	f.Add(123456.789, 1.7, mvs.LogD)
	f.Add(1e18, -1.2, -2.5)
	f.Add(3e7, 0.5, 0.0)
	f.Add(42.0, 1.0, 7.0)
	f.Fuzz(func(t *testing.T, refs, b, logD float64) {
		m := NewModel()
		m.Workload.B = b
		m.Workload.LogD = logD
		checkBits(t, "fuzz", m, m.Compile(), refs)
	})
}
