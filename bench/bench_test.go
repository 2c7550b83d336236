package bench

import (
	"io"
	"math"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload at 1% of its packet budget (the
// suite at full size): the cold op, an untraced and a traced op must pass
// their output checks, the traced run must yield every per-layer metric,
// and an op checked against a corrupted reference must fail.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick suite four times")
	}
	for _, name := range Names {
		t.Run(name, func(t *testing.T) {
			w, err := NewWorkload(name, 1, 0.01, "..")
			if err != nil {
				t.Fatal(err)
			}
			ops := []Op{w.Cold(), w.Op(nil, nil, 1)}
			sp, rec := NewSpans(), NewPhaseRecorder(10_000)
			ops = append(ops, w.Op(sp, rec, 2))
			for i, op := range ops {
				if op.Err != nil {
					t.Fatalf("op %d: %v", i, op.Err)
				}
				if op.Events == 0 || op.Wall <= 0 {
					t.Errorf("op %d: %d events in %v", i, op.Events, op.Wall)
				}
			}
			layers := w.Layers(sp, rec, ops[1:2], ops[2:])
			for _, d := range PerLayer {
				v, ok := layers[d.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Errorf("layer metric %s = %v (present %v)", d.Name, v, ok)
				}
			}
			if len(layers) != len(PerLayer) {
				t.Errorf("%d layer metrics, want %d", len(layers), len(PerLayer))
			}
			if err := writeSpans(filepath.Join(t.TempDir(), "spans.json"), sp, name); err != nil {
				t.Fatal(err)
			}

			// Negative control: the check must notice a wrong reference.
			switch name {
			case SuiteQuick:
				w.golden = slices.Clone(w.golden)
				w.golden[len(w.golden)/2] ^= 1
			case LiveMRUZipfBurst:
				w.ref.MeanDelay *= 1 + 2*liveDelayTolerance
			default:
				w.ref.Arrivals++
			}
			if op := w.Op(nil, nil, 3); op.Err == nil {
				t.Error("op checked against a corrupted reference passed")
			}
		})
	}
}

// TestManifestMatchesMetrics pins BENCHMARK.json to the program: the
// same workloads, and the same metric names, units and directions. A
// bound above 0.25 is outside what the manifest format accepts; the
// check says nothing about whether a bound resolves the host's noise.
func TestManifestMatchesMetrics(t *testing.T) {
	m, err := ReadManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, Names) {
		t.Errorf("manifest workloads %v, program %v", names, Names)
	}
	var e2e []Def
	for _, b := range m.EndToEnd {
		e2e = append(e2e, Def{b.Name, b.Unit, b.Better})
		if b.Bound <= 0 || b.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", b.Name, b.Bound)
		}
	}
	if !slices.Equal(e2e, EndToEnd) {
		t.Errorf("manifest end_to_end %v, program %v", e2e, EndToEnd)
	}
	if !slices.Equal(m.PerLayer, PerLayer) {
		t.Errorf("manifest per_layer %v, program %v", m.PerLayer, PerLayer)
	}
}

func TestCompare(t *testing.T) {
	bounds := []Bound{{"op_min_s", "s", "lower", 0.1}, {"events_per_s", "events/s", "higher", 0.1}}
	result := func(op, ev float64, failed int) *Result {
		return &Result{Seed: 1, Rounds: Rounds, Workloads: []WorkloadResult{{Name: DESWired96,
			Attempted: 10, Failed: failed, FailFrac: float64(failed) / 10, Metrics: map[string]Metric{
				"op_min_s": {op, "s"}, "events_per_s": {ev, "events/s"}}}}}
	}
	with := func(edit func(*Result)) *Result {
		r := result(1, 100, 0)
		edit(r)
		return r
	}
	base := result(1, 100, 0)
	for _, c := range []struct {
		name    string
		cand    *Result
		ok, err bool
	}{
		{"same", result(1, 100, 0), true, false},
		{"within bounds", result(1.09, 91, 0), true, false},
		{"slower", result(1.11, 100, 0), false, false},
		{"lower rate", result(1, 89, 0), false, false},
		{"failure", result(1, 100, 1), false, false},
		{"other seed", with(func(r *Result) { r.Seed = 7 }), false, true},
		{"time budget", with(func(r *Result) { r.Seconds, r.Rounds = 15, 4 }), false, true},
		{"fewer rounds", with(func(r *Result) { r.Rounds = 9 }), false, true},
		{"traced", with(func(r *Result) { r.Trace = true }), false, true},
		{"other workload", with(func(r *Result) { r.Workloads[0].Name = SuiteQuick }), false, true},
		{"extra workload", with(func(r *Result) {
			r.Workloads = append(r.Workloads, WorkloadResult{Name: SuiteQuick})
		}), false, true},
	} {
		ok, err := Compare(io.Discard, base, c.cand, bounds)
		if ok != c.ok || (err != nil) != c.err {
			t.Errorf("%s: Compare = %v, %v; want %v, error %v", c.name, ok, err, c.ok, c.err)
		}
	}
	// A baseline with a workload the candidate lacks is refused too.
	if _, err := Compare(io.Discard, with(func(r *Result) {
		r.Workloads = append(r.Workloads, WorkloadResult{Name: SuiteQuick})
	}), base, bounds); err == nil {
		t.Error("Compare accepted a candidate missing a baseline workload")
	}
}

func TestSegments(t *testing.T) {
	var cfg Config
	for _, c := range []struct{ seg, round, first, want int }{
		{0, 6, 0, 0}, {0, 7, 0, 1}, {1, 13, 7, 0}, {1, 14, 7, 1}, {2, 21, 14, 1},
	} {
		if got := cfg.segmentDone(c.seg, c.round, c.first, 0); got != (c.want == 1) {
			t.Errorf("rounds: segmentDone(%d, %d, %d) = %v", c.seg, c.round, c.first, got)
		}
	}
	cfg = Config{Seconds: 9}
	if cfg.segmentDone(0, 0, 0, time.Hour) {
		t.Error("a launch must run at least one round")
	}
	if !cfg.segmentDone(1, 5, 3, 6*time.Second) || cfg.segmentDone(2, 5, 4, 8*time.Second) {
		t.Error("seconds: launches must split the budget in thirds")
	}
}
