package queueing

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func close(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// The general formulas below are the references the specializations in
// queueing.go are checked against.

// MM1Wait returns the mean queueing delay (time waiting, excluding
// service) of an M/M/1 queue with arrival rate lambda and mean service
// time s: Wq = ρ·s / (1 − ρ).
func MM1Wait(lambda, s float64) float64 {
	r := rho(lambda, s)
	return r * s / (1 - r)
}

// MG1Wait returns the Pollaczek–Khinchine mean queueing delay of an
// M/G/1 queue with squared coefficient of variation scv of the service
// distribution: Wq = (1 + scv)/2 · ρ·s/(1 − ρ).
func MG1Wait(lambda, s, scv float64) float64 {
	if scv < 0 {
		panic(fmt.Sprintf("queueing: negative squared CV %v", scv))
	}
	return (1 + scv) / 2 * MM1Wait(lambda, s)
}

// GGcWaitApprox returns the Allen–Cunneen approximation for a G/G/c
// queue with arrival and service squared coefficients of variation ca2
// and cs2.
func GGcWaitApprox(c int, lambda, s, ca2, cs2 float64) float64 {
	if ca2 < 0 || cs2 < 0 {
		panic("queueing: negative squared CV")
	}
	return (ca2 + cs2) / 2 * MMcWait(c, lambda, s)
}

// ApproxEqual reports whether got is within tol (relative) of want,
// a helper for validation tables.
func ApproxEqual(got, want, tol float64) bool {
	if want == 0 {
		return math.Abs(got) <= tol
	}
	return math.Abs(got-want)/math.Abs(want) <= tol
}

func TestMM1KnownValue(t *testing.T) {
	// ρ = 0.5 ⇒ Wq = s.
	if got := MM1Wait(0.005, 100); !close(got, 100, 1e-9) {
		t.Fatalf("MM1Wait = %v, want 100", got)
	}
	// ρ = 0.8 ⇒ Wq = 4s.
	if got := MM1Wait(0.008, 100); !close(got, 400, 1e-9) {
		t.Fatalf("MM1Wait = %v, want 400", got)
	}
}

func TestMD1IsHalfMM1(t *testing.T) {
	for _, lam := range []float64{0.001, 0.005, 0.009} {
		if got, want := MD1Wait(lam, 100), MM1Wait(lam, 100)/2; !close(got, want, 1e-12) {
			t.Fatalf("MD1Wait(%v) = %v, want %v", lam, got, want)
		}
	}
}

func TestMG1Specializations(t *testing.T) {
	// scv = 1 ⇒ M/M/1; scv = 0 ⇒ M/D/1.
	if got, want := MG1Wait(0.004, 100, 1), MM1Wait(0.004, 100); !close(got, want, 1e-12) {
		t.Fatalf("MG1(scv=1) = %v, want %v", got, want)
	}
	if got, want := MG1Wait(0.004, 100, 0), MD1Wait(0.004, 100); !close(got, want, 1e-12) {
		t.Fatalf("MG1(scv=0) = %v, want %v", got, want)
	}
}

func TestErlangCSingleServer(t *testing.T) {
	// c = 1: P(wait) = ρ.
	for _, a := range []float64{0.1, 0.5, 0.9} {
		if got := ErlangC(1, a); !close(got, a, 1e-12) {
			t.Fatalf("ErlangC(1, %v) = %v, want %v", a, got, a)
		}
	}
}

func TestErlangCKnownValue(t *testing.T) {
	// Textbook value: c = 2, a = 1 ⇒ C = 1/3.
	if got := ErlangC(2, 1); !close(got, 1.0/3, 1e-12) {
		t.Fatalf("ErlangC(2,1) = %v, want 1/3", got)
	}
	// c = 3, a = 2 ⇒ C(3,2) = 4/9 / (1+2+2 + 4/3·... ) — use the
	// standard published value 0.4444.
	if got := ErlangC(3, 2); !close(got, 0.44444444, 1e-6) {
		t.Fatalf("ErlangC(3,2) = %v, want 0.4444", got)
	}
}

func TestMMcReducesToMM1(t *testing.T) {
	if got, want := MMcWait(1, 0.006, 100), MM1Wait(0.006, 100); !close(got, want, 1e-9) {
		t.Fatalf("MMcWait(1) = %v, want %v", got, want)
	}
}

func TestMDcApproxExactAtC1(t *testing.T) {
	if got, want := MDcWaitApprox(1, 0.006, 100), MD1Wait(0.006, 100); !close(got, want, 1e-9) {
		t.Fatalf("MDcWaitApprox(1) = %v, want %v", got, want)
	}
}

func TestGGcSpecializations(t *testing.T) {
	if got, want := GGcWaitApprox(2, 0.01, 100, 1, 1), MMcWait(2, 0.01, 100); !close(got, want, 1e-12) {
		t.Fatalf("GGc(1,1) = %v, want %v", got, want)
	}
	if got, want := GGcWaitApprox(2, 0.01, 100, 1, 0), MDcWaitApprox(2, 0.01, 100); !close(got, want, 1e-12) {
		t.Fatalf("GGc(1,0) = %v, want %v", got, want)
	}
}

func TestBatchReducesToMD1(t *testing.T) {
	if got, want := BatchGeoMD1Wait(0.004, 100, 1), MD1Wait(0.004, 100); !close(got, want, 1e-9) {
		t.Fatalf("BatchGeoMD1Wait(m=1) = %v, want %v", got, want)
	}
}

func TestBatchWaitGrowsWithBurst(t *testing.T) {
	prev := 0.0
	for _, m := range []float64{1, 2, 4, 8, 16} {
		w := BatchGeoMD1Wait(0.004, 100, m)
		if w <= prev {
			t.Fatalf("batch wait not increasing at m=%v: %v ≤ %v", m, w, prev)
		}
		prev = w
	}
}

// Property: every wait formula is non-negative and increasing in λ.
func TestPropertyWaitsMonotoneInLambda(t *testing.T) {
	prop := func(aRaw, bRaw uint16) bool {
		la := float64(aRaw%9000+1) / 1e6 // up to 0.009 with s=100 → ρ ≤ 0.9
		lb := float64(bRaw%9000+1) / 1e6
		if la > lb {
			la, lb = lb, la
		}
		for _, f := range []func(float64) float64{
			func(l float64) float64 { return MM1Wait(l, 100) },
			func(l float64) float64 { return MD1Wait(l, 100) },
			func(l float64) float64 { return MMcWait(4, l*4, 100) },
		} {
			wa, wb := f(la), f(lb)
			if wa < 0 || wa > wb+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: pooling helps — an M/M/c system always beats c separate
// M/M/1 queues each fed a 1/c share.
func TestPropertyPoolingBeatsPartitioning(t *testing.T) {
	prop := func(cRaw, loadRaw uint8) bool {
		c := int(cRaw%7) + 2
		perServer := float64(loadRaw%90+1) / 100 // per-server ρ in (0, 0.9]
		s := 100.0
		lam1 := perServer / s
		pooled := MMcWait(c, lam1*float64(c), s)
		single := MM1Wait(lam1, s)
		return pooled <= single+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSaturationPanics(t *testing.T) {
	cases := []func(){
		func() { MM1Wait(0.011, 100) },
		func() { MD1Wait(0.01, 100) },
		func() { ErlangC(2, 2) },
		func() { MM1Wait(-1, 100) },
		func() { MG1Wait(0.001, 100, -1) },
		func() { BatchGeoMD1Wait(0.001, 100, 0.5) },
		func() { ErlangC(0, 0.5) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(102, 100, 0.05) {
		t.Fatal("2% error rejected at 5% tolerance")
	}
	if ApproxEqual(110, 100, 0.05) {
		t.Fatal("10% error accepted at 5% tolerance")
	}
	if !ApproxEqual(0.001, 0, 0.01) {
		t.Fatal("near-zero comparison wrong")
	}
}
