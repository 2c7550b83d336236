package workload

import (
	"math"
	"testing"
)

func TestDefaults(t *testing.T) {
	d := Default()
	if d.Intensity != 1 {
		t.Fatalf("Default intensity = %v, want 1", d.Intensity)
	}
	if d.PreemptCost <= 0 {
		t.Fatal("Default preempt cost must be positive")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIdle(t *testing.T) {
	i := Idle()
	if i.Intensity != 0 || i.PreemptCost != 0 {
		t.Fatalf("Idle = %+v, want zero intensity and preempt cost", i)
	}
	if err := i.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWithIntensity(t *testing.T) {
	half := WithIntensity(0.5)
	if half.Intensity != 0.5 {
		t.Fatalf("Intensity = %v", half.Intensity)
	}
	if half.PreemptCost != Default().PreemptCost*0.5 {
		t.Fatalf("PreemptCost = %v, want the default scaled by intensity", half.PreemptCost)
	}
	if full := WithIntensity(1); full != Default() {
		t.Fatalf("WithIntensity(1) = %+v, want Default()", full)
	}
	if zero := WithIntensity(0); zero != Idle() {
		t.Fatalf("WithIntensity(0) = %+v, want Idle()", zero)
	}
}

// TestWithIntensityContinuousAtZero pins the bugfix: the preempt cost
// must not jump from 0 to the full 5 µs the instant V leaves 0, or a
// fine-grained intensity sweep inherits a spurious discontinuity.
func TestWithIntensityContinuousAtZero(t *testing.T) {
	eps := WithIntensity(1e-9)
	if eps.PreemptCost >= Default().PreemptCost/1e6 {
		t.Fatalf("PreemptCost(1e-9) = %v: discontinuous at V=0", eps.PreemptCost)
	}
	// Monotone and continuous across the whole sweep: cost strictly
	// increases with V and never exceeds the default.
	prev := WithIntensity(0).PreemptCost
	for _, v := range []float64{1e-6, 0.01, 0.25, 0.5, 0.75, 1} {
		c := WithIntensity(v).PreemptCost
		if c <= prev || c > Default().PreemptCost {
			t.Fatalf("PreemptCost(%v) = %v not monotone within (0, default]", v, c)
		}
		prev = c
	}
}

func TestValidateRejectsOutOfRange(t *testing.T) {
	bad := []NonProtocol{
		{Intensity: -0.1},
		{Intensity: 1.1},
		{Intensity: 0.5, PreemptCost: -1},
		{Intensity: math.NaN()},
		{Intensity: 0.5, PreemptCost: math.NaN()},
		{Intensity: 0.5, PreemptCost: math.Inf(1)},
	}
	for _, n := range bad {
		if err := n.Validate(); err == nil {
			t.Errorf("invalid workload accepted: %+v", n)
		}
	}
}
