package sim

import (
	"math"
	"testing"

	"affinity/internal/core"
	"affinity/internal/queueing"
	"affinity/internal/sched"
	"affinity/internal/traffic"
	"affinity/internal/workload"
)

// The simulator must reproduce classical queueing results in the
// configurations where it reduces to a known system: idle host (V = 0)
// plus perfect affinity makes service deterministic at t_warm.

// approxEqual reports whether got is within tol (relative) of a nonzero
// want.
func approxEqual(got, want, tol float64) bool {
	return math.Abs(got-want)/math.Abs(want) <= tol
}

func TestSimMatchesMD1(t *testing.T) {
	warm := core.PaperCalibration().TWarm
	idle := workload.Idle()
	for _, rho := range []float64{0.3, 0.6, 0.8} {
		lambda := rho / warm // packets per µs
		res := Run(Params{
			Paradigm: IPS, Policy: sched.IPSWired, Streams: 1, Stacks: 1,
			Arrival:         traffic.Poisson{PacketsPerSec: lambda * 1e6},
			Background:      &idle,
			Seed:            11,
			MeasuredPackets: 20000,
		})
		want := queueing.MD1Wait(lambda, warm)
		if !approxEqual(res.MeanQueueing, want, 0.10) {
			t.Errorf("ρ=%.1f: sim Wq %.1f vs M/D/1 %.1f (>10%% off)", rho, res.MeanQueueing, want)
		}
	}
}

func TestSimMatchesBatchMD1(t *testing.T) {
	warm := core.PaperCalibration().TWarm
	idle := workload.Idle()
	rho := 0.5
	lambda := rho / warm
	res := Run(Params{
		Paradigm: IPS, Policy: sched.IPSWired, Streams: 1, Stacks: 1,
		Arrival:         traffic.Batch{PacketsPerSec: lambda * 1e6, MeanBurst: 4},
		Background:      &idle,
		Seed:            11,
		MeasuredPackets: 30000,
	})
	want := queueing.BatchGeoMD1Wait(lambda, warm, 4)
	if !approxEqual(res.MeanQueueing, want, 0.15) {
		t.Errorf("sim Wq %.1f vs M[X]/D/1 %.1f (>15%% off)", res.MeanQueueing, want)
	}
}

func TestSimMatchesMDC(t *testing.T) {
	warm := core.PaperCalibration().TWarm
	idle := workload.Idle()
	s := warm + 12 // lock overhead
	rho := 0.85
	lambdaAgg := rho * 8 / s
	res := Run(Params{
		Paradigm: Locking, Policy: sched.FCFS, Streams: 8,
		Arrival:         traffic.Poisson{PacketsPerSec: lambdaAgg * 1e6 / 8},
		Background:      &idle,
		CodeSharedFrac:  1,
		LockCritFrac:    1e-6,
		Seed:            11,
		MeasuredPackets: 20000,
	})
	want := queueing.MDcWaitApprox(8, lambdaAgg, s)
	if !approxEqual(res.MeanQueueing, want, 0.15) {
		t.Errorf("sim Wq %.1f vs M/D/8 approx %.1f (>15%% off)", res.MeanQueueing, want)
	}
	// And the service itself must be the deterministic constant.
	if !approxEqual(res.MeanService, s, 0.02) {
		t.Errorf("service %.1f not constant at %.1f", res.MeanService, s)
	}
}
