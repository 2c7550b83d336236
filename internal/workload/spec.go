package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"affinity/internal/des"
	"affinity/internal/traffic"
	"affinity/internal/xmath"
)

// Spec is a declarative, file-loadable description of an
// Internet-realistic offered load: named client classes, each spreading
// an aggregate packet rate across a set of streams with Zipf-skewed
// popularity and optional ON/OFF burst modulation. Jain's DEC-TR-592
// measurements motivate the shape: destination-address traffic is
// heavily skewed with strong temporal reuse, which is exactly the
// regime where cache-affinity scheduling has the most state to exploit.
//
// A Spec deterministically expands (Generate) into one traffic.Spec per
// stream, so the DES runner and the live goroutine backend — which both
// build per-stream processes from seed-derived RNG substreams — consume
// bit-identical arrival sequences from it.
type Spec struct {
	// Name labels the workload in output; optional.
	Name string `json:"name,omitempty"`
	// Classes are expanded in declaration order: class 0's streams get
	// the lowest stream ids.
	Classes []Class `json:"classes"`
}

// Class is one client population sharing a traffic model.
type Class struct {
	// Name labels the class; must be non-empty and unique within a Spec.
	Name string `json:"name"`
	// Model selects the per-stream arrival process: "poisson", "cbr",
	// "batch", or "train" (see internal/traffic).
	Model string `json:"model"`
	// Streams is how many streams the class contributes (≥ 1).
	Streams int `json:"streams"`
	// RatePPS is the class's aggregate packet rate, split across its
	// streams by the Zipf weights.
	RatePPS float64 `json:"rate_pps"`

	// MeanBurst is the batch model's mean burst size (packets/event);
	// ignored by other models.
	MeanBurst float64 `json:"mean_burst,omitempty"`
	// MeanTrainLen and IntraGapUS are the train model's mean train
	// length and intra-train gap (µs); ignored by other models.
	MeanTrainLen float64 `json:"mean_train_len,omitempty"`
	IntraGapUS   float64 `json:"intra_gap_us,omitempty"`

	// Zipf is the popularity exponent s ≥ 0: stream i of the class
	// carries weight (i+1)^-s, so s = 0 is a uniform split and larger s
	// concentrates the class rate on its first streams. The aggregate
	// class rate is preserved at every s.
	Zipf float64 `json:"zipf,omitempty"`

	// OnUS/OffUS, when OffUS > 0, modulate every stream of the class
	// with exponential ON/OFF periods of these means (µs). The per-
	// stream base rate is scaled up by the inverse duty cycle so the
	// class's long-run rate stays RatePPS.
	OnUS  float64 `json:"on_us,omitempty"`
	OffUS float64 `json:"off_us,omitempty"`
}

// Parse decodes a JSON workload spec. Unknown fields are rejected so a
// typo in a spec file fails loudly instead of silently dropping a knob.
// Parse validates: a returned *Spec is ready to Generate.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("workload: parsing spec: %w", err)
	}
	// A second document in the same file is a malformed spec, not data
	// to ignore.
	if dec.More() {
		return nil, fmt.Errorf("workload: trailing data after spec document")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// String renders the spec as canonical indented JSON; Parse(String())
// round-trips to an identical Spec.
func (s *Spec) String() string {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil { // non-finite floats only; unreachable for parsed specs
		return fmt.Sprintf("workload.Spec(unencodable: %v)", err)
	}
	return string(b)
}

// TotalStreams is the stream count the spec expands to.
func (s *Spec) TotalStreams() int {
	n := 0
	for _, c := range s.Classes {
		n += c.Streams
	}
	return n
}

// Validate reports a descriptive error for a structurally invalid spec
// or one whose expansion would produce an invalid per-stream traffic
// spec (e.g. a train model whose lowest-rate stream is infeasible).
func (s *Spec) Validate() error {
	if len(s.Classes) == 0 {
		return fmt.Errorf("workload: spec has no classes")
	}
	seen := make(map[string]bool, len(s.Classes))
	for i, c := range s.Classes {
		if c.Name == "" {
			return fmt.Errorf("workload: class %d has no name", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("workload: duplicate class name %q", c.Name)
		}
		seen[c.Name] = true
		if err := c.validate(); err != nil {
			return err
		}
	}
	// The structural checks above guarantee expansion succeeds except
	// for per-model feasibility, which the traffic layer owns: expand
	// and let every stream's own Validate judge its parameters.
	specs, err := s.generate()
	if err != nil {
		return err
	}
	for i, ts := range specs {
		if err := ts.Validate(); err != nil {
			return fmt.Errorf("workload: stream %d (%s): %w", i, ts, err)
		}
	}
	return nil
}

func (c Class) validate() error {
	switch c.Model {
	case "poisson", "cbr", "batch", "train":
	default:
		return fmt.Errorf("workload: class %q: unknown traffic model %q (want poisson, cbr, batch, or train)", c.Name, c.Model)
	}
	if c.Streams < 1 {
		return fmt.Errorf("workload: class %q: stream count %d must be ≥ 1", c.Name, c.Streams)
	}
	if !(c.RatePPS > 0) || math.IsInf(c.RatePPS, 1) {
		return fmt.Errorf("workload: class %q: rate %v must be a positive finite pkt/s", c.Name, c.RatePPS)
	}
	if c.Zipf < 0 || math.IsInf(c.Zipf, 1) || math.IsNaN(c.Zipf) {
		return fmt.Errorf("workload: class %q: zipf exponent %v must be finite and ≥ 0", c.Name, c.Zipf)
	}
	if c.OnUS < 0 || c.OffUS < 0 || math.IsInf(c.OnUS, 1) || math.IsInf(c.OffUS, 1) ||
		math.IsNaN(c.OnUS) || math.IsNaN(c.OffUS) {
		return fmt.Errorf("workload: class %q: ON/OFF periods %v/%v must be finite and ≥ 0", c.Name, c.OnUS, c.OffUS)
	}
	if c.OffUS > 0 && c.OnUS == 0 {
		return fmt.Errorf("workload: class %q: OFF period %v µs needs a positive ON period", c.Name, c.OffUS)
	}
	return nil
}

// base returns the class's traffic model at the class aggregate rate;
// per-stream expansion retargets it with traffic.WithRate.
func (c Class) base() traffic.Spec {
	switch c.Model {
	case "cbr":
		return traffic.Deterministic{PacketsPerSec: c.RatePPS}
	case "batch":
		return traffic.Batch{PacketsPerSec: c.RatePPS, MeanBurst: c.MeanBurst}
	case "train":
		return traffic.Train{PacketsPerSec: c.RatePPS, MeanTrainLen: c.MeanTrainLen,
			IntraGap: des.Time(c.IntraGapUS)}
	default:
		return traffic.Poisson{PacketsPerSec: c.RatePPS}
	}
}

// zipfWeights returns the normalized popularity weights w_i ∝ (i+1)^-s
// for n streams. s = 0 yields the uniform split; n = 1 always yields
// {1} regardless of s.
func zipfWeights(s float64, n int) []float64 {
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = xmath.Pow(float64(i+1), -s)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// Generate expands the spec into one traffic.Spec per stream, classes
// in declaration order and streams within a class in descending
// popularity. The expansion is a pure function of the spec, so both
// simulation backends derive identical arrival processes from it.
func (s *Spec) Generate() ([]traffic.Spec, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s.generate()
}

func (s *Spec) generate() ([]traffic.Spec, error) {
	specs := make([]traffic.Spec, 0, s.TotalStreams())
	for _, c := range s.Classes {
		w := zipfWeights(c.Zipf, c.Streams)
		for i := 0; i < c.Streams; i++ {
			ts, err := traffic.WithRate(c.base(), c.RatePPS*w[i])
			if err != nil {
				return nil, fmt.Errorf("workload: class %q stream %d: %w", c.Name, i, err)
			}
			if c.OffUS > 0 {
				// Scale the base up by the inverse duty cycle so the
				// modulated long-run rate stays on target.
				duty := c.OnUS / (c.OnUS + c.OffUS)
				ts, err = traffic.WithRate(ts, c.RatePPS*w[i]/duty)
				if err != nil {
					return nil, fmt.Errorf("workload: class %q stream %d: %w", c.Name, i, err)
				}
				ts = traffic.OnOff{Base: ts, MeanOn: des.Time(c.OnUS), MeanOff: des.Time(c.OffUS)}
			}
			specs = append(specs, ts)
		}
	}
	return specs, nil
}
