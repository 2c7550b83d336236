package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCacheConfigGeometry(t *testing.T) {
	l1 := CacheConfig{SizeBytes: 16 << 10, LineBytes: 16, Assoc: 1}
	if l1.Sets() != 1024 {
		t.Fatalf("L1 Sets = %d, want 1024", l1.Sets())
	}
	l2 := CacheConfig{SizeBytes: 1 << 20, LineBytes: 128, Assoc: 1}
	if l2.Sets() != 8192 {
		t.Fatalf("L2 Sets = %d, want 8192", l2.Sets())
	}
	fourWay := CacheConfig{SizeBytes: 32 << 10, LineBytes: 32, Assoc: 4}
	if fourWay.Sets() != 256 {
		t.Fatalf("4-way Sets = %d, want 256", fourWay.Sets())
	}
}

func TestCacheConfigValidate(t *testing.T) {
	good := CacheConfig{SizeBytes: 1024, LineBytes: 16, Assoc: 2}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []CacheConfig{
		{SizeBytes: 0, LineBytes: 16, Assoc: 1},
		{SizeBytes: 1024, LineBytes: 0, Assoc: 1},
		{SizeBytes: 1024, LineBytes: 16, Assoc: 0},
		{SizeBytes: 1000, LineBytes: 16, Assoc: 2}, // not divisible
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("invalid config accepted: %+v", c)
		}
	}
}

func TestPlatformDefaults(t *testing.T) {
	p := SGIChallengeXL()
	if err := p.Validate(); err != nil {
		t.Fatalf("default platform invalid: %v", err)
	}
	if p.Processors != 8 {
		t.Fatalf("Processors = %d, want 8", p.Processors)
	}
	// 100 MHz / 5 cycles-per-ref = 20 references per microsecond.
	if got := p.RefsPerMicrosecond(); math.Abs(got-20) > 1e-12 {
		t.Fatalf("RefsPerMicrosecond = %v, want 20", got)
	}
}

func TestUniqueLinesBasics(t *testing.T) {
	w := MVSWorkload()
	if w.UniqueLines(0, 16) != 0 {
		t.Fatal("u(0, L) must be 0")
	}
	if w.UniqueLines(-5, 16) != 0 {
		t.Fatal("u(negative, L) must be 0")
	}
	// Plausibility anchor: ~10⁶ references of the MVS workload touch on
	// the order of tens of thousands of 16-byte lines (~hundreds of KB),
	// consistent with the source trace's working set.
	u := w.UniqueLines(1e6, 16)
	if u < 5e3 || u > 2e5 {
		t.Fatalf("u(1e6, 16) = %.0f, outside plausible range [5e3, 2e5]", u)
	}
}

func TestUniqueLinesClampedToRefs(t *testing.T) {
	w := MVSWorkload()
	for _, r := range []float64{1, 2, 5, 10, 100} {
		if u := w.UniqueLines(r, 16); u > r {
			t.Fatalf("u(%v) = %v exceeds reference count", r, u)
		}
	}
}

// Property: u(R, L) is non-decreasing in R.
func TestPropertyUniqueLinesMonotone(t *testing.T) {
	w := MVSWorkload()
	prop := func(a, b uint32) bool {
		ra, rb := float64(a%1e8), float64(b%1e8)
		if ra > rb {
			ra, rb = rb, ra
		}
		return w.UniqueLines(ra, 16) <= w.UniqueLines(rb, 16)+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDisplacedFractionLimits(t *testing.T) {
	c := CacheConfig{SizeBytes: 16 << 10, LineBytes: 16, Assoc: 1}
	if DisplacedFraction(0, c) != 0 {
		t.Fatal("F(0) must be 0")
	}
	if f := DisplacedFraction(1e9, c); f < 0.999999 {
		t.Fatalf("F(huge) = %v, want → 1", f)
	}
}

func TestDisplacedFractionDirectMappedClosedForm(t *testing.T) {
	// For A=1, F = 1 − e^{−u/S}.
	c := CacheConfig{SizeBytes: 16 << 10, LineBytes: 16, Assoc: 1}
	s := float64(c.Sets())
	for _, u := range []float64{1, 100, 1024, 5000} {
		want := 1 - math.Exp(-u/s)
		if got := DisplacedFraction(u, c); math.Abs(got-want) > 1e-12 {
			t.Fatalf("F(%v) = %v, want %v", u, got, want)
		}
	}
}

func TestDisplacedFractionAssociativityHelps(t *testing.T) {
	// Same set count, higher associativity ⇒ a line needs more
	// conflicting arrivals to be displaced ⇒ smaller F.
	direct := CacheConfig{SizeBytes: 16 << 10, LineBytes: 16, Assoc: 1}
	twoWay := CacheConfig{SizeBytes: 32 << 10, LineBytes: 16, Assoc: 2} // same 1024 sets
	if direct.Sets() != twoWay.Sets() {
		t.Fatal("test setup: set counts differ")
	}
	for _, u := range []float64{100, 1000, 5000} {
		f1 := DisplacedFraction(u, direct)
		f2 := DisplacedFraction(u, twoWay)
		if f2 >= f1 {
			t.Fatalf("u=%v: 2-way F=%v not below direct-mapped F=%v", u, f2, f1)
		}
	}
}

// Property: F is non-decreasing in u and bounded in [0, 1].
func TestPropertyDisplacedFractionMonotoneBounded(t *testing.T) {
	c := CacheConfig{SizeBytes: 1 << 20, LineBytes: 128, Assoc: 1}
	prop := func(a, b uint32) bool {
		ua, ub := float64(a%1e7), float64(b%1e7)
		if ua > ub {
			ua, ub = ub, ua
		}
		fa, fb := DisplacedFraction(ua, c), DisplacedFraction(ub, c)
		return fa >= 0 && fb <= 1 && fa <= fb+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPoissonTail(t *testing.T) {
	// k=1: 1 − e^{−λ}.
	if got, want := poissonTail(2, 1), 1-math.Exp(-2); math.Abs(got-want) > 1e-12 {
		t.Fatalf("P(X≥1) = %v, want %v", got, want)
	}
	// k=2: 1 − e^{−λ}(1+λ).
	if got, want := poissonTail(2, 2), 1-math.Exp(-2)*3; math.Abs(got-want) > 1e-12 {
		t.Fatalf("P(X≥2) = %v, want %v", got, want)
	}
	if poissonTail(0, 1) != 0 {
		t.Fatal("P with λ=0 must be 0")
	}
}

func TestModelF2FlushesMuchSlowerThanF1(t *testing.T) {
	// The paper: "the protocol footprint is flushed much more slowly from
	// L2 than from L1, reflecting its much larger size."
	m := NewModel()
	h1 := m.FlushHalfLife(1)
	h2 := m.FlushHalfLife(2)
	if !(h1 > 0 && h2 > 0) {
		t.Fatalf("half-lives must be positive: h1=%v h2=%v", h1, h2)
	}
	if h2 < 10*h1 {
		t.Fatalf("L2 half-life %v µs not ≫ L1 half-life %v µs", h2, h1)
	}
	// And both are on physically sensible scales: L1 well under 10 ms,
	// L2 in the tens of milliseconds.
	if h1 > 10e3 {
		t.Fatalf("L1 half-life %v µs implausibly long", h1)
	}
	if h2 < 1e3 || h2 > 1e6 {
		t.Fatalf("L2 half-life %v µs outside plausible range", h2)
	}
}

func TestExecTimeEndpoints(t *testing.T) {
	m := NewModel()
	if got := m.ExecTime(0); got != m.Calib.TWarm {
		t.Fatalf("ExecTime(0) = %v, want TWarm %v", got, m.Calib.TWarm)
	}
	if got := m.ExecTime(1e12); math.Abs(got-m.Calib.TCold) > 0.5 {
		t.Fatalf("ExecTime(∞) = %v, want → TCold %v", got, m.Calib.TCold)
	}
}

// Property: ExecTime is non-decreasing in refs and bounded by [TWarm, TCold].
func TestPropertyExecTimeMonotoneBounded(t *testing.T) {
	m := NewModel()
	prop := func(a, b uint32) bool {
		ra, rb := float64(a), float64(b)
		if ra > rb {
			ra, rb = rb, ra
		}
		ta, tb := m.ExecTime(ra), m.ExecTime(rb)
		return ta >= m.Calib.TWarm-1e-9 && tb <= m.Calib.TCold+1e-9 && ta <= tb+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPaperCalibrationReductionBound(t *testing.T) {
	// The paper reports the upper bound on affinity delay reduction
	// (V = 0 curves) as "around 40-50%"; the calibration must embed that.
	c := PaperCalibration()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if r := c.MaxReduction(); r < 0.40 || r > 0.50 {
		t.Fatalf("MaxReduction = %v, want within the paper's 40-50%% band", r)
	}
	if c.TCold != 284.3 {
		t.Fatalf("TCold = %v, want the paper's 284.3 µs", c.TCold)
	}
}

func TestCalibrationValidate(t *testing.T) {
	bad := []Calibration{
		{TWarm: 0, TL1Cold: 1, TCold: 2},
		{TWarm: 2, TL1Cold: 1, TCold: 3},
		{TWarm: 1, TL1Cold: 3, TCold: 2},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("invalid calibration accepted: %+v", c)
		}
	}
}

func TestF1SplitVersusUnified(t *testing.T) {
	// With the equal-split assumption off, all references hammer one
	// cache, displacing faster at equal per-side geometry.
	split := NewModel()
	unified := NewModel()
	unified.Platform.L1SplitEvenRef = false
	refs := 20000.0
	fs := split.F1(refs)
	fu := unified.F1(refs)
	if fu <= fs {
		t.Fatalf("unified F1 %v should exceed split F1 %v", fu, fs)
	}
}

func TestFlushHalfLifeInvalidLevelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bad level")
		}
	}()
	NewModel().FlushHalfLife(3)
}

func TestModelValidate(t *testing.T) {
	m := NewModel()
	if err := m.Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
	m.Calib.TWarm = -1
	if err := m.Validate(); err == nil {
		t.Fatal("invalid calibration accepted")
	}
	m = NewModel()
	m.Platform.Processors = 0
	if err := m.Validate(); err == nil {
		t.Fatal("invalid platform accepted")
	}
}

func TestSendCalibration(t *testing.T) {
	s := SendCalibration()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	r := PaperCalibration()
	if s.TCold >= r.TCold || s.TWarm >= r.TWarm {
		t.Fatalf("send calibration %+v not cheaper than receive %+v", s, r)
	}
	m := NewSendModel()
	if m.Calib != s {
		t.Fatal("NewSendModel does not carry the send calibration")
	}
	if m.ExecTime(0) != s.TWarm {
		t.Fatal("send model warm time wrong")
	}
}

func TestTCPCalibration(t *testing.T) {
	c := TCPCalibration()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	udp := PaperCalibration()
	ratio := c.TCold / udp.TCold
	if ratio < 1.05 || ratio > 1.25 {
		t.Fatalf("TCP cold time %.1f not ~15%% above UDP %.1f", c.TCold, udp.TCold)
	}
	m := NewTCPModel()
	if m.Calib != c {
		t.Fatal("NewTCPModel does not carry the TCP calibration")
	}
}
