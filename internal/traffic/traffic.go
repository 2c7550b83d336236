// Package traffic provides the packet arrival processes the study
// exercises: Poisson streams (the paper's base workload), deterministic
// streams, batch-bursty arrivals (the intra-stream burstiness
// experiments), and the Jain–Routhier packet-train model [9] named in the
// paper's extensions.
package traffic

import (
	"fmt"
	"math"

	"affinity/internal/des"
)

// Process yields successive arrivals for one stream. Next returns the
// delay from the previous arrival event and the number of packets
// arriving together (≥1).
type Process interface {
	Next() (delay des.Time, batch int)
}

// Spec constructs a per-stream arrival process. Implementations are
// value types carrying parameters; Build instantiates the stochastic
// state with the stream's own RNG.
//
// Specs reach Build from two directions with different error contracts:
// user input (CLI flags, workload spec files) must be rejected with a
// descriptive error before the run starts, while programmatic misuse
// (library code constructing a spec it never validated) stays a panic.
// Validate is the boundary: sim.Params.Validate calls it on every
// arrival spec pre-run, so any invalid or infeasible parameterization
// that came in through a flag or a file surfaces as an error and exit
// code 1 — Build's panics remain only for callers that skipped it.
type Spec interface {
	// Rate returns the long-run packet rate in packets/second, used by
	// sweeps to label operating points.
	Rate() float64
	Build(rng *des.RNG) Process
	String() string
	// Validate reports a descriptive error for invalid or infeasible
	// parameters; a spec whose Validate returns nil never panics in
	// Build.
	Validate() error
}

// interarrival converts packets/second to a mean gap in µs.
func interarrival(rate float64) des.Time {
	if rate <= 0 {
		panic(fmt.Sprintf("traffic: non-positive rate %v", rate))
	}
	return des.Time(1e6 / rate)
}

// checkRate rejects a packet rate that is not a positive finite number.
func checkRate(kind string, rate float64) error {
	if !(rate > 0) || math.IsInf(rate, 1) {
		return fmt.Errorf("traffic: %s rate %v must be a positive finite pkt/s", kind, rate)
	}
	return nil
}

// Poisson is a Poisson arrival process.
type Poisson struct {
	PacketsPerSec float64
}

// Rate implements Spec.
func (p Poisson) Rate() float64 { return p.PacketsPerSec }

func (p Poisson) String() string { return fmt.Sprintf("poisson(%g pkt/s)", p.PacketsPerSec) }

// Validate implements Spec.
func (p Poisson) Validate() error { return checkRate("poisson", p.PacketsPerSec) }

// Build implements Spec.
func (p Poisson) Build(rng *des.RNG) Process {
	return &poissonProc{mean: interarrival(p.PacketsPerSec), rng: rng}
}

type poissonProc struct {
	mean des.Time
	rng  *des.RNG
}

func (p *poissonProc) Next() (des.Time, int) { return p.rng.ExpTime(p.mean), 1 }

// Deterministic is a constant-gap arrival process.
type Deterministic struct {
	PacketsPerSec float64
}

// Rate implements Spec.
func (d Deterministic) Rate() float64 { return d.PacketsPerSec }

func (d Deterministic) String() string { return fmt.Sprintf("cbr(%g pkt/s)", d.PacketsPerSec) }

// Validate implements Spec.
func (d Deterministic) Validate() error { return checkRate("cbr", d.PacketsPerSec) }

// Build implements Spec.
func (d Deterministic) Build(*des.RNG) Process {
	return fixedProc(interarrival(d.PacketsPerSec))
}

type fixedProc des.Time

func (f fixedProc) Next() (des.Time, int) { return des.Time(f), 1 }

// Batch is a bursty process: burst events arrive Poisson; each carries a
// geometrically distributed number of packets with the given mean, so
// the long-run packet rate is PacketsPerSec while intra-stream burstiness
// grows with MeanBurst.
type Batch struct {
	PacketsPerSec float64
	MeanBurst     float64
}

// Rate implements Spec.
func (b Batch) Rate() float64 { return b.PacketsPerSec }

func (b Batch) String() string {
	return fmt.Sprintf("batch(%g pkt/s, b=%g)", b.PacketsPerSec, b.MeanBurst)
}

// Validate implements Spec.
func (b Batch) Validate() error {
	if err := checkRate("batch", b.PacketsPerSec); err != nil {
		return err
	}
	if !(b.MeanBurst >= 1) || math.IsInf(b.MeanBurst, 1) {
		return fmt.Errorf("traffic: batch mean burst %v must be a finite value ≥ 1", b.MeanBurst)
	}
	return nil
}

// Build implements Spec. It panics on parameters Validate rejects —
// programmatic misuse; user-supplied specs are validated pre-run.
func (b Batch) Build(rng *des.RNG) Process {
	if err := b.Validate(); err != nil {
		panic(err)
	}
	eventRate := b.PacketsPerSec / b.MeanBurst
	return &batchProc{mean: interarrival(eventRate), burst: b.MeanBurst, rng: rng}
}

type batchProc struct {
	mean  des.Time
	burst float64
	rng   *des.RNG
}

func (b *batchProc) Next() (des.Time, int) {
	return b.rng.ExpTime(b.mean), b.rng.Geometric(b.burst)
}

// Train is the Jain–Routhier packet-train model: trains start as a
// Poisson process; within a train, packets follow at a fixed intra-train
// gap; train lengths are geometric with the given mean. The long-run
// packet rate is PacketsPerSec.
type Train struct {
	PacketsPerSec float64
	MeanTrainLen  float64
	IntraGap      des.Time // gap between packets inside a train
}

// Rate implements Spec.
func (t Train) Rate() float64 { return t.PacketsPerSec }

func (t Train) String() string {
	return fmt.Sprintf("train(%g pkt/s, len=%g, gap=%v)", t.PacketsPerSec, t.MeanTrainLen, t.IntraGap)
}

// interTrain returns the mean inter-train gap that delivers the
// long-run rate: the mean cycle inter + (len−1)·intraGap must deliver
// len packets, so inter = len/rate − (len−1)·intraGap.
func (t Train) interTrain() des.Time {
	return des.Time(t.MeanTrainLen*1e6/t.PacketsPerSec) - des.Time(des.Time(t.MeanTrainLen-1)*t.IntraGap)
}

// Validate implements Spec. It rejects infeasible parameterizations —
// an intra-train gap so large that delivering the long-run rate would
// need a negative inter-train gap — as well as out-of-range fields.
func (t Train) Validate() error {
	if err := checkRate("train", t.PacketsPerSec); err != nil {
		return err
	}
	if !(t.MeanTrainLen >= 1) || math.IsInf(t.MeanTrainLen, 1) {
		return fmt.Errorf("traffic: mean train length %v must be a finite value ≥ 1", t.MeanTrainLen)
	}
	if !(t.IntraGap >= 0) {
		return fmt.Errorf("traffic: negative intra-train gap %v", t.IntraGap)
	}
	if !(t.interTrain() > 0) {
		return fmt.Errorf("traffic: train params infeasible: rate %v, len %v, gap %v need a negative inter-train gap",
			t.PacketsPerSec, t.MeanTrainLen, t.IntraGap)
	}
	return nil
}

// Build implements Spec. It panics on parameters Validate rejects —
// programmatic misuse; user-supplied specs are validated pre-run.
func (t Train) Build(rng *des.RNG) Process {
	if err := t.Validate(); err != nil {
		panic(err)
	}
	return &trainProc{interTrain: t.interTrain(), meanLen: t.MeanTrainLen, gap: t.IntraGap, rng: rng}
}

type trainProc struct {
	interTrain des.Time
	meanLen    float64
	gap        des.Time
	rng        *des.RNG
	remaining  int // packets left in the current train
}

func (t *trainProc) Next() (des.Time, int) {
	if t.remaining > 0 {
		t.remaining--
		return t.gap, 1
	}
	t.remaining = t.rng.Geometric(t.meanLen) - 1
	return t.rng.ExpTime(t.interTrain), 1
}
