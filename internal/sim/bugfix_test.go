package sim

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"affinity/internal/obs"
	"affinity/internal/sched"
	"affinity/internal/traffic"
)

// A run completing fewer than two batch-means batches reports
// DelayCI = +Inf; encoding/json rejects non-finite floats, so -json
// crashed on such runs. The marshaler must sanitize them to null.
func TestResultsJSONSanitizesNonFinite(t *testing.T) {
	r := Results{
		Paradigm:  "Locking",
		Policy:    "MRU",
		MeanDelay: 120.5,
		DelayCI:   math.Inf(1),
		P95Delay:  math.NaN(),
		Obs: &obs.Snapshot{
			ExecTime:    obs.Summary{N: 2, Mean: 167.9, Max: math.Inf(1)},
			PerProcBusy: []float64{math.NaN(), 12.5},
		},
		PerStreamDelay: []float64{100, math.Inf(1)},
	}
	enc, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if !json.Valid(enc) {
		t.Fatalf("invalid JSON: %s", enc)
	}
	var dec map[string]any
	if err := json.Unmarshal(enc, &dec); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if dec["DelayCI"] != nil {
		t.Errorf("DelayCI = %v, want null", dec["DelayCI"])
	}
	if dec["P95Delay"] != nil {
		t.Errorf("P95Delay = %v, want null", dec["P95Delay"])
	}
	if dec["MeanDelay"] != 120.5 {
		t.Errorf("MeanDelay = %v, want 120.5", dec["MeanDelay"])
	}
	// Results.Obs is a pointer to a struct: the sanitizer must follow
	// it into nested structs and slices.
	snap := dec["Obs"].(map[string]any)
	if exec := snap["ExecTime"].(map[string]any); exec["Max"] != nil || exec["Mean"] != 167.9 {
		t.Errorf("Obs.ExecTime = %v, want Max null and Mean 167.9", exec)
	}
	if busy := snap["PerProcBusy"].([]any); busy[0] != nil || busy[1] != 12.5 {
		t.Errorf("Obs.PerProcBusy = %v, want [null 12.5]", busy)
	}
	if perStream := dec["PerStreamDelay"].([]any); perStream[1] != nil {
		t.Errorf("PerStreamDelay[1] = %v, want null", perStream[1])
	}
}

// End-to-end regression for `affinitysim -packets 1 -json`: a run whose
// single measured packet completes zero batch-means batches must still
// encode as valid JSON with DelayCI null.
func TestRunResultsJSONWithOneMeasuredPacket(t *testing.T) {
	res := Run(Params{
		Paradigm: Locking, Policy: sched.MRU, Streams: 8,
		Arrival:         traffic.Poisson{PacketsPerSec: 1000},
		MeasuredPackets: 1,
		Seed:            1,
	})
	if !math.IsInf(res.DelayCI, 1) {
		t.Fatalf("expected +Inf DelayCI with one measured packet, got %v", res.DelayCI)
	}
	enc, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if !json.Valid(enc) {
		t.Fatalf("invalid JSON: %s", enc)
	}
	if !strings.Contains(string(enc), `"DelayCI":null`) {
		t.Fatalf("DelayCI not sanitized: %s", enc)
	}
}

// WarmFraction's numerator was counted at service start while its
// denominator counts completions, so packets still in flight when the
// run stopped inflated the ratio: a horizon-truncated run with cold
// completions reported WarmFraction = 1.0 exactly. Both sides now count
// at completion, so the cold completions must show up in the ratio.
func TestWarmFractionExcludesInFlightPackets(t *testing.T) {
	res := Run(Params{
		Paradigm: Locking, Policy: sched.MRU, Streams: 1,
		Arrival: traffic.Poisson{PacketsPerSec: 60000}, Warmup: 1,
		MeasuredPackets: 1 << 30, MaxTime: 3000, Seed: 1,
	})
	if res.ColdStarts == 0 {
		t.Fatal("test config expected cold starts")
	}
	if res.WarmFraction >= 1 {
		t.Errorf("WarmFraction = %v with %d cold starts among %d completions; in-flight packets still counted",
			res.WarmFraction, res.ColdStarts, res.Completed)
	}
	if res.WarmFraction <= 0.5 {
		t.Errorf("WarmFraction = %v, expected a mostly-warm saturated run", res.WarmFraction)
	}
}

// WarmFraction is a fraction of completions and must stay within [0, 1]
// on arbitrarily truncated runs.
func TestWarmFractionBounded(t *testing.T) {
	for _, p := range []Params{
		{Paradigm: Locking, Policy: sched.MRU, Streams: 1,
			Arrival: traffic.Poisson{PacketsPerSec: 50000}, Warmup: 1,
			MeasuredPackets: 1, Seed: 3},
		{Paradigm: IPS, Policy: sched.IPSMRU, Streams: 8, Stacks: 8,
			Arrival: traffic.Poisson{PacketsPerSec: 9000}, Warmup: 1,
			MeasuredPackets: 2, Seed: 1},
		{Paradigm: Hybrid, Policy: sched.IPSWired, Streams: 4, Stacks: 4,
			Arrival: traffic.Batch{PacketsPerSec: 6000, MeanBurst: 16}, Warmup: 1,
			MeasuredPackets: 5, Seed: 2},
	} {
		res := Run(p)
		if res.WarmFraction < 0 || res.WarmFraction > 1 {
			t.Errorf("%v %v: WarmFraction = %v outside [0, 1]", p.Paradigm, p.Policy, res.WarmFraction)
		}
	}
}

// P95Delay clamps to the histogram's 100 ms upper bound on saturated
// runs; the clamp must be surfaced instead of reported as a measurement.
func TestP95ClampSurfaced(t *testing.T) {
	sat := Run(Params{
		Paradigm: Locking, Policy: sched.FCFS, Streams: 8,
		Arrival: traffic.Poisson{PacketsPerSec: 20000},
		MaxTime: 2_000_000, MeasuredPackets: 4000, Seed: 1,
	})
	if !sat.Saturated {
		t.Fatal("test config expected a saturated run")
	}
	if !sat.P95Clamped {
		t.Errorf("P95Clamped = false on a saturated run with P95Delay = %v", sat.P95Delay)
	}
	if sat.DelayOverflow <= 0 {
		t.Errorf("DelayOverflow = %v, want > 0", sat.DelayOverflow)
	}

	ok := Run(Params{
		Paradigm: Locking, Policy: sched.MRU, Streams: 8,
		Arrival:         traffic.Poisson{PacketsPerSec: 500},
		MeasuredPackets: 2000, Seed: 1,
	})
	if ok.P95Clamped || ok.DelayOverflow != 0 {
		t.Errorf("healthy run flagged: clamped=%v overflow=%v", ok.P95Clamped, ok.DelayOverflow)
	}
	if ok.P95Delay >= 100_000 {
		t.Errorf("healthy run P95 = %v", ok.P95Delay)
	}
}
