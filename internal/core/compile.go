package core

import "math"

// Exec is a compiled execution-time evaluator: Model.ExecTime with every
// constant-argument transcendental hoisted out of the per-packet path.
//
// UniqueLines spends most of its time in math.Pow/math.Log10 calls whose
// arguments depend only on the workload constants and the cache line
// size — W·L^a and log10(d)·log10(L) are the same numbers every packet.
// Compile evaluates them once per cache level. Per call, each level
// takes ln(refs) once and feeds it to log10(refs) and to both powers,
// which otherwise recompute ln(refs) and ln(10) (see powLn). What
// remains is exactly the tail of the original expression, evaluated in
// the same order, so the compiled evaluator is bit-for-bit identical to
// the interpreted one (TestCompileBitIdentical locks this in). When the L1I
// and L1D configurations coincide — as on the paper's R4400 — the two
// split-cache halves of F1 are the same computation, so Compile
// evaluates one and reuses it ((x+x)/2 ≡ x in IEEE arithmetic).
//
// An Exec is immutable after Compile and safe for concurrent use by
// runs sharing one Model.
type Exec struct {
	tWarm, tCold float64
	d1           float64 // TL1Cold − TWarm
	d2           float64 // TCold − TL1Cold

	split  bool // Platform.L1SplitEvenRef
	sameL1 bool // split and L1I == L1D
	l1i    levelExec
	l1d    levelExec
	l2     levelExec
}

// levelExec evaluates the displaced fraction for one cache level with
// the line-size-dependent constants precomputed.
type levelExec struct {
	c0    float64 // W · L^a
	kl    float64 // log10(d) · log10(L)
	b     float64 // temporal-locality exponent
	sets  float64 // float64(cfg.Sets())
	assoc int
}

func compileLevel(w WorkloadParams, cfg CacheConfig) levelExec {
	l := float64(cfg.LineBytes)
	return levelExec{
		c0:    w.W * math.Pow(l, w.A),
		kl:    w.LogD * math.Log10(l),
		b:     w.B,
		sets:  float64(cfg.Sets()),
		assoc: cfg.Assoc,
	}
}

// ln10 is math.Log(10), the logarithm math.Pow(10, y) recomputes on
// every call.
var ln10 = math.Log(10)

// displaced is UniqueLines followed by DisplacedFraction, with the
// constant factors folded and ln(refs) taken once. The remaining
// operations and their order match the originals exactly: Log10(refs)
// is Log(refs)·(1/Ln10), and the two powers are math.Pow given the
// logarithm of their base (see powLn).
func (le *levelExec) displaced(refs float64) float64 {
	if refs <= 0 {
		return 0
	}
	if refs < 1 {
		refs = 1
	}
	lnR := math.Log(refs)
	logR := lnR * (1 / math.Ln10)
	u := le.c0 * powLn(refs, lnR, le.b) * powLn(10, ln10, le.kl*logR)
	if u > refs {
		u = refs
	}
	if u <= 0 {
		return 0
	}
	return poissonTail(u/le.sets, le.assoc)
}

// powLn returns math.Pow(x, y) given lnx = math.Log(x). It runs the
// steps of Go's pure-Go pow (src/math/pow.go) — Modf(|y|), the
// yf > 0.5 fold, Exp(yf·ln x), the Frexp square-and-multiply loop for
// the integer part, the reciprocal for y < 0, Ldexp — with ln x
// supplied instead of recomputed. Every input pow special-cases (x = 1,
// x not positive and finite, y ∈ {0, ±0.5, 1, NaN, ±Inf}, |y| ≥ 2⁶³)
// goes to math.Pow itself.
//
// The result is bit-identical to math.Pow wherever math.Pow is that
// pure-Go pow and math.Log10(x) is math.Log(x)·(1/Ln10): every GOARCH
// except s390x, which has assembly versions of both.
// TestPowLnMatchesPow and TestCompileBitIdentical fail on any platform
// where this does not hold.
func powLn(x, lnx, y float64) float64 {
	if x == 1 || !(x > 0) || math.IsInf(x, 1) ||
		y == 0 || y == 1 || y == 0.5 || y == -0.5 || math.IsNaN(y) || math.IsInf(y, 0) {
		return math.Pow(x, y)
	}
	yi, yf := math.Modf(math.Abs(y))
	if yi >= 1<<63 {
		return math.Pow(x, y)
	}

	// ans = a1 · 2^ae
	a1 := 1.0
	ae := 0
	if yf != 0 {
		if yf > 0.5 {
			yf--
			yi++
		}
		a1 = math.Exp(yf * lnx)
	}
	x1, xe := math.Frexp(x)
	for i := int64(yi); i != 0; i >>= 1 {
		if xe < -1<<12 || 1<<12 < xe {
			// xe would overflow the shift; Ldexp under/overflows anyway.
			ae += xe
			break
		}
		if i&1 == 1 {
			a1 *= x1
			ae += xe
		}
		x1 *= x1
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

// Compile returns the compiled evaluator for the model's current
// platform, workload and calibration. The result does not track later
// mutations of the model.
func (m *Model) Compile() *Exec {
	return &Exec{
		tWarm:  m.Calib.TWarm,
		tCold:  m.Calib.TCold,
		d1:     m.Calib.TL1Cold - m.Calib.TWarm,
		d2:     m.Calib.TCold - m.Calib.TL1Cold,
		split:  m.Platform.L1SplitEvenRef,
		sameL1: m.Platform.L1SplitEvenRef && m.Platform.L1I == m.Platform.L1D,
		l1i:    compileLevel(m.Workload, m.Platform.L1I),
		l1d:    compileLevel(m.Workload, m.Platform.L1D),
		l2:     compileLevel(m.Workload, m.Platform.L2),
	}
}

// Warm returns the warm-cache execution time t_warm — the floor of the
// T(x) curve. Topology-aware charging scales only the reload transient
// T(x) − Warm() of a migrating packet, never the warm service floor.
func (e *Exec) Warm() float64 { return e.tWarm }

// F1 returns the L1 displaced fraction, identical to Model.F1.
func (e *Exec) F1(refs float64) float64 {
	if math.IsInf(refs, 1) {
		return 1
	}
	if !e.split {
		return e.l1d.displaced(refs)
	}
	half := refs / 2
	fi := e.l1i.displaced(half)
	if e.sameL1 {
		return fi
	}
	return (fi + e.l1d.displaced(half)) / 2
}

// F2 returns the L2 displaced fraction, identical to Model.F2.
func (e *Exec) F2(refs float64) float64 {
	if math.IsInf(refs, 1) {
		return 1
	}
	return e.l2.displaced(refs)
}

// ExecTime returns the packet execution time, identical to
// Model.ExecTime.
func (e *Exec) ExecTime(refs float64) float64 {
	t, _ := e.ExecTimeF1(refs)
	return t
}

// ExecTimeF1 returns the execution time together with the F1 value it
// used, so a caller needing both (the simulator tests F1 < 0.5 for its
// warm-hit counter) evaluates the model once per packet instead of
// twice.
func (e *Exec) ExecTimeF1(refs float64) (t, f1 float64) {
	if refs <= 0 {
		return e.tWarm, 0
	}
	if math.IsInf(refs, 1) {
		return e.tCold, 1
	}
	f1 = e.F1(refs)
	return e.tWarm + f1*e.d1 + e.F2(refs)*e.d2, f1
}
