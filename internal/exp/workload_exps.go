package exp

import (
	"fmt"

	"affinity/internal/des"
	"affinity/internal/sched"
	"affinity/internal/sim"
	"affinity/internal/workload"
	"affinity/internal/xmath"
)

// e31Skews are the Zipf popularity exponents E31 sweeps, from uniform
// (s=0) to heavily skewed (s=2, where the hottest stream carries ~65%
// of the aggregate).
var e31Skews = []float64{0, 0.5, 1.0, 1.5, 2.0}

// FigE31 measures how stream-popularity skew changes the value of
// affinity scheduling. The paper's evaluation offers every stream the
// same rate; Internet traffic does not — flow popularity follows a
// Zipf law, concentrating most packets on a few hot streams. The skew
// sweep holds the aggregate rate fixed and redistributes it by Zipf
// exponent, and the model's answer is monotone in the exponent: the
// MRU-over-FCFS advantage is largest for uniform traffic and shrinks
// as skew grows. Skew gives an affinity-oblivious policy incidental
// affinity — when most packets belong to one hot stream, whatever
// processor FCFS picks probably served that stream last anyway — so
// deliberate affinity scheduling matters most exactly when no stream
// dominates. (The same sweep at other rates and data-touch settings
// reproduces the direction; it is not an artifact of the operating
// point.)
func FigE31(c Config) *Table {
	t := &Table{
		ID:      "E31",
		Title:   "Zipf stream-popularity skew vs affinity benefit (Locking, 8 streams, 12000 pkt/s aggregate)",
		Columns: []string{"zipf s", "hottest share", "FCFS delay (µs)", "MRU delay (µs)", "MRU advantage"},
		Notes: []string{
			"per-stream rates follow w_i ∝ (i+1)^-s at a fixed 12000 pkt/s aggregate (workload.Spec zipf knob)",
			"hottest share: fraction of the aggregate carried by stream 0",
			"MRU advantage: (FCFS - MRU) / FCFS mean delay; shrinks monotonically with skew —",
			"a dominant stream gives FCFS incidental affinity, so deliberate affinity pays most on uniform traffic",
		},
	}
	g := c.Grid("E31")
	type pair struct{ fcfs, mru *Point }
	pts := make([]pair, len(e31Skews))
	for i, s := range e31Skews {
		spec := &workload.Spec{
			Name: fmt.Sprintf("zipf-%g", s),
			Classes: []workload.Class{
				{Name: "flows", Model: "poisson", Streams: 8, RatePPS: 12000, Zipf: s},
			},
		}
		pts[i].fcfs = g.Add(fmt.Sprintf("s=%g/FCFS", s), sim.Params{
			Paradigm: sim.Locking, Policy: sched.FCFS, Workload: spec,
		})
		pts[i].mru = g.Add(fmt.Sprintf("s=%g/MRU", s), sim.Params{
			Paradigm: sim.Locking, Policy: sched.MRU, Workload: spec,
		})
	}
	g.Run()
	for i, s := range e31Skews {
		fc, mr := pts[i].fcfs.Results(), pts[i].mru.Results()
		adv := (fc.MeanDelay - mr.MeanDelay) / fc.MeanDelay
		t.AddRow(fmt.Sprintf("%g", s), fmt.Sprintf("%.3f", zipfTopShare(s, 8)),
			fmtDelay(fc), fmtDelay(mr), fmt.Sprintf("%.1f%%", 100*adv))
	}
	return t
}

// zipfTopShare is the fraction of a Zipf(s) aggregate the hottest of n
// streams carries: 1 / Σ_{i=1..n} i^-s.
func zipfTopShare(s float64, n int) float64 {
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += xmath.Pow(float64(i), -s)
	}
	return 1 / sum
}

// FigE32 contrasts every Locking policy on one frozen ON/OFF-bursty
// arrival history: workload.Synthesize draws the modulated arrivals
// once from the suite seed, and each policy replays the identical
// trace, so the delay spread across rows is purely the scheduling
// policy — no arrival-sampling noise, the methodological payoff of
// trace record/replay. The ON/OFF modulation (duty 1/3, 3x peak-to-
// mean) makes the contrast harsher than Poisson: bursts pile up
// queues, and what a policy does with a backlog — migrate it and eat
// reloads, or drain it warm — dominates the mean.
func FigE32(c Config) *Table {
	t := &Table{
		ID:      "E32",
		Title:   "Policies on one replayed ON/OFF burst trace (Locking, 8 streams, 6000 pkt/s mean, duty 1/3)",
		Columns: []string{"policy", "mean delay (µs)", "p95 (µs)", "warm fraction", "migrations"},
		Notes: []string{
			"all rows replay the same synthesized arrival trace (workload.Synthesize + Replay): identical arrivals, bit-for-bit",
			"ON 20ms / OFF 40ms exponential modulation of per-stream Poisson at 3x peak-to-mean",
		},
	}
	spec := &workload.Spec{
		Name: "onoff-burst",
		Classes: []workload.Class{
			{Name: "bursty", Model: "poisson", Streams: 8, RatePPS: 6000,
				OnUS: 20000, OffUS: 40000},
		},
	}
	per, err := spec.Generate()
	if err != nil {
		panic(fmt.Sprintf("exp: E32 workload spec invalid: %v", err))
	}
	// The horizon comfortably covers the measurement window at the mean
	// rate (full runs need ~2s of arrivals for 12000 packets; quick runs
	// a fraction of that), so no policy drains the trace early.
	trace := workload.Synthesize(per, c.Seed, 8*des.Second)
	replay := workload.Replay(trace)

	g := c.Grid("E32")
	policies := []sched.Kind{sched.FCFS, sched.MRU, sched.ThreadPools, sched.WiredStreams}
	var pts []*Point
	for _, pol := range policies {
		pts = append(pts, g.Add(pol.String(), sim.Params{
			Paradigm: sim.Locking, Policy: pol,
			Streams: len(replay), ArrivalPerStream: replay,
		}))
	}
	g.Run()
	for i, pol := range policies {
		r := pts[i].Results()
		t.AddRow(pol.String(), fmtDelay(r), fmtP95(r),
			fmt.Sprintf("%.3f", r.WarmFraction), r.Migrations)
	}
	return t
}
