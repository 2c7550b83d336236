package core

import (
	"math"

	"affinity/internal/xmath"
)

// Exec is a compiled execution-time evaluator: Model.ExecTime with every
// constant-argument transcendental hoisted out of the per-packet path
// and the cache levels evaluated in lockstep.
//
// UniqueLines spends most of its time in xmath.Pow/xmath.Log10 calls
// whose arguments depend only on the workload constants and the cache
// line size — W·L^a and log10(d)·log10(L) are the same numbers every
// packet. Compile evaluates them once per cache level, and runs the
// steps of xmath.Pow(·, b) that depend on the constant b alone once. Per
// call, each level takes ln(refs) once and feeds it to log10(refs) and
// to both powers, each power is xmath.Pow's own Exp with the
// exponent-field steps around it done on the bits (see powSplit and
// powJoin), and the levels are walked in lockstep (see fractions). What
// remains is exactly the tail of the original expression, evaluated in
// the same order, so the compiled evaluator is bit-for-bit identical to
// the interpreted one (TestCompileBitIdentical locks this in). When the
// L1I and L1D configurations coincide — as on the paper's R4400 — the
// two split-cache halves of F1 are the same computation, so Compile
// keeps one level for both ((x+x)/2 ≡ x in IEEE arithmetic).
//
// An Exec is immutable after Compile and safe for concurrent use by
// runs sharing one Model.
type Exec struct {
	tWarm, tCold float64
	d1           float64 // TL1Cold − TWarm
	d2           float64 // TCold − TL1Cold

	b powB // refs^b's exponent steps, shared by every level

	// lv holds the n distinct cache levels, L2 last. F1 is lv[0]'s
	// displaced fraction, or the mean of lv[0] and lv[1] when meanL1
	// (split L1 halves that differ).
	n      int
	meanL1 bool
	lv     [maxLevels]levelExec
}

// maxLevels is the most distinct cache levels a model has: L1I, L1D
// and L2.
const maxLevels = 3

// levelExec holds one cache level's line-size-dependent constants.
type levelExec struct {
	c0    float64 // W · L^a
	kl    float64 // log10(d) · log10(L)
	sets  float64 // float64(cfg.Sets())
	assoc int
	half  bool // sees refs/2: a half of the split L1
}

func compileLevel(w WorkloadParams, cfg CacheConfig, half bool) levelExec {
	l := float64(cfg.LineBytes)
	return levelExec{
		c0:    w.W * xmath.Pow(l, w.A),
		kl:    w.LogD * xmath.Log10(l),
		sets:  float64(cfg.Sets()),
		assoc: cfg.Assoc,
		half:  half,
	}
}

// powB is powSplit of the temporal-locality exponent b, which every
// call raises refs to: x^b is xmath.Pow(x, b) when call is set, and
// otherwise Exp(yf·ln x) joined with x^yi.
type powB struct {
	b, yf float64
	yi    int64
	call  bool
}

// ln10 is xmath.Log(10), the logarithm xmath.Pow(10, y) recomputes on
// every call.
var ln10 = xmath.Log(10)

// Compile returns the compiled evaluator for the model's current
// platform, workload and calibration. The result does not track later
// mutations of the model.
func (m *Model) Compile() *Exec {
	p, w := m.Platform, m.Workload
	e := &Exec{
		tWarm: m.Calib.TWarm,
		tCold: m.Calib.TCold,
		d1:    m.Calib.TL1Cold - m.Calib.TWarm,
		d2:    m.Calib.TCold - m.Calib.TL1Cold,
	}
	yf, yi, ok := powSplit(w.B)
	e.b = powB{b: w.B, yf: yf, yi: yi, call: !ok}
	add := func(c CacheConfig, half bool) {
		e.lv[e.n] = compileLevel(w, c, half)
		e.n++
	}
	switch {
	case !p.L1SplitEvenRef:
		add(p.L1D, false)
	case p.L1I == p.L1D:
		add(p.L1I, true)
	default:
		add(p.L1I, true)
		add(p.L1D, true)
		e.meanL1 = true
	}
	add(p.L2, false)
	return e
}

// Warm returns the warm-cache execution time t_warm — the floor of the
// T(x) curve. Topology-aware charging scales only the reload transient
// T(x) − Warm() of a migrating packet, never the warm service floor.
func (e *Exec) Warm() float64 { return e.tWarm }

// ExecTimeF1 returns the packet execution time, identical to
// Model.ExecTime, together with the F1 value it used, so a caller
// needing both (the simulator tests F1 < 0.5 for its warm-hit counter)
// evaluates the model once per packet instead of twice.
func (e *Exec) ExecTimeF1(refs float64) (t, f1 float64) {
	if refs <= 0 {
		return e.tWarm, 0
	}
	if math.IsInf(refs, 1) {
		return e.tCold, 1
	}
	f1, f2 := e.fractions(refs)
	return e.tWarm + float64(f1*e.d1) + float64(f2*e.d2), f1
}

// levelRun is one level's state in a fractions pass.
type levelRun struct {
	x, lnx  float64 // the clamped reference count and its log; x = 0 idles the level
	eb, e10 float64 // the Exps of refs^b and 10^y
	y       float64 // kl·log10(refs), the exponent of 10
	yi      int64   // powSplit(y)'s integer part
	join10  bool    // 10^y is powJoin of e10, not xmath.Pow
	lam     float64 // the Poisson mean u/S
}

// fractions returns F1 and F2, identical to Model.F1 and Model.F2, in
// one pass over the distinct cache levels. Each level is UniqueLines
// followed by DisplacedFraction, but the pass walks the levels in
// lockstep: every level's Log, then every power's Exp, then every
// Poisson tail's Exp. The calls of one kind do not depend on each
// other, so issued back to back they overlap, where one level after
// another each would wait on the last. The operations and their order
// within a level match the originals exactly: Log10(refs) is
// Log(refs)·(1/Ln10), and each power is xmath.Pow's Exp(yf·ln x)
// between its exponent steps.
func (e *Exec) fractions(refs float64) (f1, f2 float64) {
	if math.IsInf(refs, 1) {
		return 1, 1
	}
	var run [maxLevels]levelRun
	rs := run[:e.n]
	for i := range rs {
		x := refs
		if e.lv[i].half {
			x = refs / 2
		}
		if x <= 0 {
			continue
		}
		if x < 1 {
			x = 1
		}
		rs[i].x = x
		rs[i].lnx = xmath.Log(x)
	}
	for i := range rs {
		r := &rs[i]
		if r.x == 0 {
			continue
		}
		r.eb = 1
		if e.b.yf != 0 {
			r.eb = xmath.Exp(e.b.yf * r.lnx)
		}
		r.y = e.lv[i].kl * (r.lnx * (1 / math.Ln10))
		yf, yi, ok := powSplit(r.y)
		r.yi, r.join10 = yi, ok
		r.e10 = 1
		if yf != 0 {
			r.e10 = xmath.Exp(yf * ln10)
		}
	}
	for i := range rs {
		r := &rs[i]
		if r.x == 0 {
			continue
		}
		var pb float64
		switch {
		case e.b.call || r.x != r.x:
			// A NaN base takes xmath.Pow too, for its NaN's bits.
			pb = xmath.Pow(r.x, e.b.b)
		case e.b.yi == 1 && e.b.b > 0:
			// xmath.Pow returns Ldexp(eb·x1, xe) for x = x1·2^xe, and a
			// product rounds alike at every power-of-two scale: with
			// |yf| ≤ ½ and x ≥ 1, eb·x1 is normal and eb·x overflows
			// exactly where the Ldexp does.
			pb = r.eb * r.x
		default:
			x1, xe := frexp(r.x)
			pb = powJoin(r.eb, x1, xe, e.b.yi, e.b.b < 0)
		}
		var p10 float64
		if r.join10 {
			p10 = powJoin(r.e10, 0.625, 4, r.yi, r.y < 0) // 10 = 0.625·2⁴
		} else {
			p10 = xmath.Pow(10, r.y)
		}
		u := e.lv[i].c0 * pb * p10
		if u > r.x {
			u = r.x
		}
		if u <= 0 {
			r.x = 0
			continue
		}
		r.lam = u / e.lv[i].sets
		if r.lam <= 0 {
			r.x = 0
		}
	}
	var tail [maxLevels]float64
	for i := range rs {
		if rs[i].x != 0 {
			tail[i] = xmath.Exp(-rs[i].lam)
		}
	}
	var f [maxLevels]float64
	for i := range rs {
		if rs[i].x != 0 {
			f[i] = poissonTailFrom(tail[i], rs[i].lam, e.lv[i].assoc)
		}
	}
	f1 = f[0]
	if e.meanL1 {
		f1 = (f[0] + f[1]) / 2
	}
	return f1, f[e.n-1]
}

// powSplit runs the steps of xmath.Pow(x, y) that depend on y alone. It
// reports ok = false for every exponent Pow special-cases (0, ±0.5, 1,
// NaN, ±Inf, |y| ≥ 2⁶³); otherwise it returns Modf(|y|) after Pow's
// yf > 0.5 fold, so that for x > 0, x ≠ 1, xmath.Pow(x, y) is
// powJoin(Exp(yf·ln x), Frexp(x), yi, y < 0), with Exp(0) = 1 when
// yf = 0. Below 2⁶³, int64 truncation is Modf's integer part.
func powSplit(y float64) (yf float64, yi int64, ok bool) {
	ay := math.Abs(y)
	if y == 0 || y == 1 || y == 0.5 || y == -0.5 || !(ay < 1<<63) {
		return 0, 0, false
	}
	yi = int64(ay)
	yf = ay - float64(yi)
	if yf > 0.5 {
		yf--
		yi++
	}
	return yf, yi, true
}

// powJoin finishes xmath.Pow(x, y) for x = x1·2^xe from a1 = Exp(yf·ln x)
// and powSplit's yi: Pow's square-and-multiply loop over the bits of
// yi, the reciprocal for y < 0 (neg) and the final Ldexp.
func powJoin(a1, x1 float64, xe int, yi int64, neg bool) float64 {
	ae := 0
	for i := yi; i != 0; i >>= 1 {
		if xe < -1<<12 || 1<<12 < xe {
			// xe would overflow the shift; Ldexp under/overflows anyway.
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
	if neg {
		a1 = 1 / a1
		ae = -ae
	}
	// Ldexp only moves the exponent field where a1 and the result are
	// both normal; zeros, subnormals, infinities, NaN and results that
	// leave the normal range go to math.Ldexp.
	b := math.Float64bits(a1)
	if be := int(b>>52) & expBits; be != 0 && be != expBits && be+ae > 0 && be+ae < expBits {
		return math.Float64frombits(b + uint64(ae)<<52)
	}
	return math.Ldexp(a1, ae)
}

// expBits is the exponent field of a float64 at bit 52.
const expBits = 0x7ff

// frexp is math.Frexp where x is normal, which only splits the exponent
// field off. Zeros, subnormals, infinities and NaN go to math.Frexp.
func frexp(x float64) (frac float64, exp int) {
	b := math.Float64bits(x)
	be := int(b>>52) & expBits
	if be == 0 || be == expBits {
		return math.Frexp(x)
	}
	return math.Float64frombits(b&^(expBits<<52) | 1022<<52), be - 1022
}
