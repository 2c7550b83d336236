package traffic

import (
	"math"
	"strings"
	"testing"

	"affinity/internal/des"
)

func TestOnOffPreservesRate(t *testing.T) {
	// Duty cycle 0.5: base at 4000 pkt/s delivers 2000 pkt/s long-run.
	o := OnOff{Base: Poisson{PacketsPerSec: 4000}, MeanOn: 20_000, MeanOff: 20_000}
	if got := o.Rate(); math.Abs(got-2000) > 1e-9 {
		t.Fatalf("Rate = %v, want 2000", got)
	}
	p := o.Build(des.NewRNG(11))
	got := measureRate(p, 200000)
	if math.Abs(got-2000)/2000 > 0.05 {
		t.Fatalf("empirical rate = %v, want ≈2000", got)
	}
}

func TestOnOffZeroOffIsBaseRate(t *testing.T) {
	// A zero-length OFF period means the process is always ON: the
	// long-run rate is exactly the base rate and no delivery stalls.
	o := OnOff{Base: Poisson{PacketsPerSec: 1500}, MeanOn: 10_000, MeanOff: 0}
	if got := o.Rate(); got != 1500 {
		t.Fatalf("Rate = %v, want 1500", got)
	}
	if err := o.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	p := o.Build(des.NewRNG(12))
	got := measureRate(p, 100000)
	if math.Abs(got-1500)/1500 > 0.03 {
		t.Fatalf("empirical rate = %v, want ≈1500", got)
	}
}

func TestOnOffPreservesBatches(t *testing.T) {
	o := OnOff{Base: Batch{PacketsPerSec: 2000, MeanBurst: 8}, MeanOn: 10_000, MeanOff: 5_000}
	p := o.Build(des.NewRNG(13))
	total, events := 0, 50000
	for i := 0; i < events; i++ {
		d, b := p.Next()
		if b < 1 {
			t.Fatal("batch below 1")
		}
		if d < 0 {
			t.Fatal("negative delay")
		}
		total += b
	}
	mean := float64(total) / float64(events)
	if math.Abs(mean-8) > 0.2 {
		t.Fatalf("mean burst = %v, want ≈8 (modulation must not change batch sizes)", mean)
	}
}

func TestOnOffDeterministicAcrossBuilds(t *testing.T) {
	spec := OnOff{Base: Batch{PacketsPerSec: 1000, MeanBurst: 4}, MeanOn: 5_000, MeanOff: 2_500}
	a := spec.Build(des.NewRNG(42))
	b := spec.Build(des.NewRNG(42))
	for i := 0; i < 2000; i++ {
		d1, n1 := a.Next()
		d2, n2 := b.Next()
		if d1 != d2 || n1 != n2 {
			t.Fatal("same-seed processes diverged")
		}
	}
}

func TestValidateAcceptsGoodSpecs(t *testing.T) {
	specs := []Spec{
		Poisson{PacketsPerSec: 100},
		Deterministic{PacketsPerSec: 100},
		Batch{PacketsPerSec: 100, MeanBurst: 1},
		Train{PacketsPerSec: 100, MeanTrainLen: 1, IntraGap: 0},
		OnOff{Base: Poisson{PacketsPerSec: 100}, MeanOn: 1, MeanOff: 0},
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("%v: unexpected Validate error: %v", s, err)
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		spec Spec
		want string // substring of the error
	}{
		{Poisson{PacketsPerSec: 0}, "rate"},
		{Poisson{PacketsPerSec: -5}, "rate"},
		{Poisson{PacketsPerSec: math.NaN()}, "rate"},
		{Poisson{PacketsPerSec: math.Inf(1)}, "rate"},
		{Deterministic{PacketsPerSec: 0}, "rate"},
		{Batch{PacketsPerSec: 100, MeanBurst: 0.5}, "burst"},
		{Batch{PacketsPerSec: 100, MeanBurst: math.NaN()}, "burst"},
		{Train{PacketsPerSec: 0, MeanTrainLen: 5, IntraGap: 10}, "rate"},
		{Train{PacketsPerSec: 100, MeanTrainLen: 0.5, IntraGap: 10}, "train length"},
		{Train{PacketsPerSec: 100, MeanTrainLen: 5, IntraGap: -1}, "intra-train"},
		{Train{PacketsPerSec: 20000, MeanTrainLen: 100, IntraGap: 100}, "infeasible"},
		{OnOff{Base: nil}, "base"},
		{OnOff{Base: Poisson{PacketsPerSec: 0}, MeanOn: 1}, "rate"},
		{OnOff{Base: Poisson{PacketsPerSec: 100}, MeanOn: 0, MeanOff: 10}, "ON period"},
		{OnOff{Base: Poisson{PacketsPerSec: 100}, MeanOn: 10, MeanOff: -1}, "OFF period"},
		{OnOff{Base: Poisson{PacketsPerSec: 100}, MeanOn: 10, MeanOff: des.Time(math.NaN())}, "OFF period"},
		{Train{PacketsPerSec: 100, MeanTrainLen: 5, IntraGap: des.Time(math.NaN())}, "intra-train"},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if err == nil {
			t.Errorf("%#v: Validate accepted invalid spec", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%#v: error %q does not mention %q", c.spec, err, c.want)
		}
	}
}

// TestBuildPanicMatchesValidate pins the error contract: Build panics
// exactly when Validate rejects, and the panic carries the same message.
func TestBuildPanicMatchesValidate(t *testing.T) {
	bad := []Spec{
		Batch{PacketsPerSec: 100, MeanBurst: 0.5},
		Train{PacketsPerSec: 20000, MeanTrainLen: 100, IntraGap: 100},
		OnOff{Base: Poisson{PacketsPerSec: 100}, MeanOn: 0},
	}
	for _, s := range bad {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%v: Build did not panic on invalid spec", s)
					return
				}
				err, ok := r.(error)
				if !ok || err.Error() != s.Validate().Error() {
					t.Errorf("%v: panic %v does not match Validate error %v", s, r, s.Validate())
				}
			}()
			s.Build(des.NewRNG(1))
		}()
	}
}

func TestWithRateRetargets(t *testing.T) {
	specs := []Spec{
		Poisson{PacketsPerSec: 100},
		Deterministic{PacketsPerSec: 100},
		Batch{PacketsPerSec: 100, MeanBurst: 4},
		Train{PacketsPerSec: 100, MeanTrainLen: 5, IntraGap: 10},
		OnOff{Base: Poisson{PacketsPerSec: 100}, MeanOn: 10_000, MeanOff: 30_000},
	}
	for _, s := range specs {
		got, err := WithRate(s, 250)
		if err != nil {
			t.Fatalf("%v: WithRate: %v", s, err)
		}
		if math.Abs(got.Rate()-250) > 1e-9 {
			t.Errorf("%v → %v: Rate = %v, want 250", s, got, got.Rate())
		}
	}
	// Shape parameters survive the retarget.
	b, _ := WithRate(Batch{PacketsPerSec: 100, MeanBurst: 4}, 250)
	if b.(Batch).MeanBurst != 4 {
		t.Error("WithRate changed Batch.MeanBurst")
	}
	o, _ := WithRate(OnOff{Base: Batch{PacketsPerSec: 100, MeanBurst: 4}, MeanOn: 10, MeanOff: 30}, 250)
	oo := o.(OnOff)
	if oo.MeanOn != 10 || oo.MeanOff != 30 || oo.Base.(Batch).MeanBurst != 4 {
		t.Errorf("WithRate changed OnOff shape: %v", oo)
	}
}

func TestWithRateUnknownSpec(t *testing.T) {
	if _, err := WithRate(fakeSpec{}, 100); err == nil {
		t.Fatal("WithRate accepted an unknown spec type")
	}
}

type fakeSpec struct{}

func (fakeSpec) Rate() float64          { return 1 }
func (fakeSpec) Build(*des.RNG) Process { return nil }
func (fakeSpec) String() string         { return "fake" }
func (fakeSpec) Validate() error        { return nil }
