package traffic

import (
	"fmt"
	"math"

	"affinity/internal/des"
)

// OnOff modulates a base arrival process with exponentially distributed
// ON and OFF periods (the classic interrupted process used for
// Internet-like burst behaviour at timescales above single trains). The
// base process runs only during ON periods; its virtual clock freezes
// across OFF gaps, so every base inter-arrival that straddes one or more
// gaps is stretched by their total length.
//
// The long-run packet rate is therefore Base.Rate()·MeanOn/(MeanOn+MeanOff);
// workload generators that need a target long-run rate should scale the
// base spec up by the inverse duty cycle (see WithRate).
type OnOff struct {
	Base    Spec
	MeanOn  des.Time // mean ON period, µs; must be positive
	MeanOff des.Time // mean OFF period, µs; zero disables modulation
}

// Rate implements Spec: the base rate thinned by the ON duty cycle.
func (o OnOff) Rate() float64 {
	if o.MeanOn <= 0 {
		return 0
	}
	return o.Base.Rate() * float64(o.MeanOn) / float64(o.MeanOn+o.MeanOff)
}

func (o OnOff) String() string {
	return fmt.Sprintf("onoff(%s, on=%v, off=%v)", o.Base, o.MeanOn, o.MeanOff)
}

// Validate implements Spec.
func (o OnOff) Validate() error {
	if o.Base == nil {
		return fmt.Errorf("traffic: onoff has no base process")
	}
	if err := o.Base.Validate(); err != nil {
		return err
	}
	if !(o.MeanOn > 0) || math.IsInf(float64(o.MeanOn), 1) {
		return fmt.Errorf("traffic: onoff mean ON period %v must be a positive finite duration", o.MeanOn)
	}
	if !(o.MeanOff >= 0) || math.IsInf(float64(o.MeanOff), 1) {
		return fmt.Errorf("traffic: onoff mean OFF period %v must be a non-negative finite duration", o.MeanOff)
	}
	return nil
}

// Build implements Spec. It panics on parameters Validate rejects —
// programmatic misuse; user-supplied specs are validated pre-run.
func (o OnOff) Build(rng *des.RNG) Process {
	if err := o.Validate(); err != nil {
		panic(err)
	}
	p := &onOffProc{base: o.Base.Build(rng), meanOn: o.MeanOn, meanOff: o.MeanOff, rng: rng}
	p.remaining = p.drawOn()
	return p
}

type onOffProc struct {
	base      Process
	meanOn    des.Time
	meanOff   des.Time
	rng       *des.RNG
	remaining des.Time // ON time left before the next OFF gap
}

// drawOn returns the next ON period, floored at the mean so a degenerate
// zero draw can never stall the delivery loop.
func (p *onOffProc) drawOn() des.Time {
	if d := p.rng.ExpTime(p.meanOn); d > 0 {
		return d
	}
	return p.meanOn
}

func (p *onOffProc) Next() (des.Time, int) {
	d, batch := p.base.Next()
	// d is ON-time to consume; real time adds every OFF gap straddled.
	real := d
	for d > p.remaining {
		d -= p.remaining
		real += p.rng.ExpTime(p.meanOff)
		p.remaining = p.drawOn()
	}
	p.remaining -= d
	return real, batch
}

// WithRate returns a copy of s with its long-run packet rate replaced by
// rate, preserving every shape parameter (burstiness, train structure,
// ON/OFF duty cycle). Workload generators use it to spread one class
// model across streams with Zipf-weighted rates. Unknown Spec
// implementations are rejected, not guessed at.
func WithRate(s Spec, rate float64) (Spec, error) {
	switch x := s.(type) {
	case Poisson:
		x.PacketsPerSec = rate
		return x, nil
	case Deterministic:
		x.PacketsPerSec = rate
		return x, nil
	case Batch:
		x.PacketsPerSec = rate
		return x, nil
	case Train:
		x.PacketsPerSec = rate
		return x, nil
	case OnOff:
		// Scale the base so the duty-cycle-thinned long-run rate lands
		// on target.
		duty := x.Rate() / x.Base.Rate()
		base, err := WithRate(x.Base, rate/duty)
		if err != nil {
			return nil, err
		}
		x.Base = base
		return x, nil
	default:
		return nil, fmt.Errorf("traffic: cannot retarget rate of %T", s)
	}
}
