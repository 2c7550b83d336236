package workload

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"affinity/internal/des"
	"affinity/internal/traffic"
)

const sampleSpec = `{
  "name": "skewed-mix",
  "classes": [
    {"name": "web", "model": "poisson", "streams": 6, "rate_pps": 4200, "zipf": 1.2},
    {"name": "bulk", "model": "batch", "streams": 2, "rate_pps": 1800, "mean_burst": 4},
    {"name": "control", "model": "cbr", "streams": 1, "rate_pps": 100, "on_us": 20000, "off_us": 60000}
  ]
}`

// TotalRate is the aggregate offered packet rate across all classes.
func (s *Spec) TotalRate() float64 {
	r := 0.0
	for _, c := range s.Classes {
		r += c.RatePPS
	}
	return r
}

func TestParseRoundTrip(t *testing.T) {
	s, err := Parse([]byte(sampleSpec))
	if err != nil {
		t.Fatal(err)
	}
	again, err := Parse([]byte(s.String()))
	if err != nil {
		t.Fatalf("re-parsing String(): %v", err)
	}
	if !reflect.DeepEqual(s, again) {
		t.Fatalf("round trip changed the spec:\n%v\nvs\n%v", s, again)
	}
}

func TestParseRejects(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"garbage", "not json", "parsing"},
		{"unknown field", `{"classes":[{"name":"a","model":"poisson","streams":1,"rate_pps":10,"zpif":2}]}`, "unknown field"},
		{"trailing data", `{"classes":[{"name":"a","model":"poisson","streams":1,"rate_pps":10}]} {}`, "trailing"},
		{"no classes", `{"classes":[]}`, "no classes"},
		{"empty name", `{"classes":[{"name":"","model":"poisson","streams":1,"rate_pps":10}]}`, "no name"},
		{"dup name", `{"classes":[{"name":"a","model":"poisson","streams":1,"rate_pps":10},{"name":"a","model":"cbr","streams":1,"rate_pps":10}]}`, "duplicate"},
		{"bad model", `{"classes":[{"name":"a","model":"fractal","streams":1,"rate_pps":10}]}`, "unknown traffic model"},
		{"zero streams", `{"classes":[{"name":"a","model":"poisson","streams":0,"rate_pps":10}]}`, "stream count"},
		{"zero rate", `{"classes":[{"name":"a","model":"poisson","streams":1,"rate_pps":0}]}`, "rate"},
		{"negative zipf", `{"classes":[{"name":"a","model":"poisson","streams":4,"rate_pps":10,"zipf":-1}]}`, "zipf"},
		{"off without on", `{"classes":[{"name":"a","model":"poisson","streams":1,"rate_pps":10,"off_us":500}]}`, "ON period"},
		{"bad burst", `{"classes":[{"name":"a","model":"batch","streams":1,"rate_pps":10,"mean_burst":0.5}]}`, "burst"},
		{"infeasible train", `{"classes":[{"name":"a","model":"train","streams":1,"rate_pps":20000,"mean_train_len":100,"intra_gap_us":100}]}`, "infeasible"},
	}
	for _, c := range cases {
		_, err := Parse([]byte(c.in))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestGenerateCountsAndRates(t *testing.T) {
	s, err := Parse([]byte(sampleSpec))
	if err != nil {
		t.Fatal(err)
	}
	per, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != s.TotalStreams() || len(per) != 9 {
		t.Fatalf("generated %d streams, want %d", len(per), s.TotalStreams())
	}
	total := 0.0
	for _, ts := range per {
		if err := ts.Validate(); err != nil {
			t.Fatalf("generated invalid stream spec %v: %v", ts, err)
		}
		total += ts.Rate()
	}
	if want := s.TotalRate(); math.Abs(total-want) > 1e-6 {
		t.Fatalf("aggregate generated rate %v, want %v (Zipf split and ON/OFF duty must preserve class rates)", total, want)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	s, _ := Parse([]byte(sampleSpec))
	a, _ := s.Generate()
	b, _ := s.Generate()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Generate is not a pure function of the spec")
	}
}

func TestZipfSplit(t *testing.T) {
	uniform := Spec{Classes: []Class{{Name: "u", Model: "poisson", Streams: 4, RatePPS: 1000, Zipf: 0}}}
	per, err := uniform.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range per {
		if math.Abs(ts.Rate()-250) > 1e-9 {
			t.Fatalf("zipf=0 stream rate %v, want uniform 250", ts.Rate())
		}
	}

	skewed := Spec{Classes: []Class{{Name: "s", Model: "poisson", Streams: 4, RatePPS: 1000, Zipf: 1}}}
	per, err = skewed.Generate()
	if err != nil {
		t.Fatal(err)
	}
	// Weights 1, 1/2, 1/3, 1/4 normalized by 25/12.
	want := []float64{480, 240, 160, 120}
	for i, ts := range per {
		if math.Abs(ts.Rate()-want[i]) > 1e-9 {
			t.Fatalf("zipf=1 stream %d rate %v, want %v", i, ts.Rate(), want[i])
		}
	}
	for i := 1; i < len(per); i++ {
		if per[i].Rate() >= per[i-1].Rate() {
			t.Fatal("zipf split must be strictly decreasing in stream index")
		}
	}
}

// TestSingleStreamZipf pins the n=1 boundary: with one stream the Zipf
// exponent is irrelevant and the stream carries the whole class rate.
func TestSingleStreamZipf(t *testing.T) {
	for _, s := range []float64{0, 1, 2.5, 10} {
		spec := Spec{Classes: []Class{{Name: "one", Model: "poisson", Streams: 1, RatePPS: 777, Zipf: s}}}
		per, err := spec.Generate()
		if err != nil {
			t.Fatalf("zipf=%v: %v", s, err)
		}
		if len(per) != 1 || per[0].Rate() != 777 {
			t.Fatalf("zipf=%v: single stream got rate %v, want the full 777", s, per[0].Rate())
		}
	}
}

func TestGenerateOnOffWrapping(t *testing.T) {
	spec := Spec{Classes: []Class{{
		Name: "bursty", Model: "poisson", Streams: 2, RatePPS: 800,
		OnUS: 10000, OffUS: 30000,
	}}}
	per, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range per {
		oo, ok := ts.(traffic.OnOff)
		if !ok {
			t.Fatalf("stream spec %T, want traffic.OnOff", ts)
		}
		// Long-run rate stays on target (400 each); the base is scaled
		// up by the inverse duty cycle (×4).
		if math.Abs(oo.Rate()-400) > 1e-9 {
			t.Fatalf("modulated long-run rate %v, want 400", oo.Rate())
		}
		if math.Abs(oo.Base.Rate()-1600) > 1e-9 {
			t.Fatalf("base rate %v, want 1600 (inverse duty cycle)", oo.Base.Rate())
		}
	}
}

func TestZipfWeightsNormalized(t *testing.T) {
	for _, s := range []float64{0, 0.5, 1, 2} {
		w := zipfWeights(s, 16)
		sum := 0.0
		for _, x := range w {
			sum += x
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("s=%v: weights sum %v", s, sum)
		}
	}
}

// TestGenerateDrawAllocationFree pins the generator's per-packet hot
// path: once built, drawing arrivals from generated processes (Zipf
// Poisson, batch, ON/OFF-wrapped CBR) allocates nothing. The benchgate
// tracks the same property as BenchmarkWorkloadSpecPerPacket; this
// enforces it in the plain test suite.
func TestGenerateDrawAllocationFree(t *testing.T) {
	s, err := Parse([]byte(sampleSpec))
	if err != nil {
		t.Fatal(err)
	}
	per, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]traffic.Process, len(per))
	for i, sp := range per {
		procs[i] = sp.Build(des.Stream(1, "arrivals-"+strconv.Itoa(i)))
	}
	var sink des.Time
	allocs := testing.AllocsPerRun(200, func() {
		for _, p := range procs {
			d, _ := p.Next()
			sink += d
		}
	})
	if allocs != 0 {
		t.Errorf("drawing arrivals allocates %.1f per round, want 0", allocs)
	}
	_ = sink
}
