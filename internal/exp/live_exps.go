package exp

import (
	"fmt"

	"affinity/internal/sched"
	"affinity/internal/sim"
	"affinity/internal/traffic"
)

// E29 cross-checks the discrete-event simulator against the live
// goroutine backend (internal/live): at each operating point both
// backends run the same policy pair, and the policy orderings — who
// wins — must agree. The points are chosen from E5–E8 operating points
// where the DES margin is at least ~5×, so the verdicts are stable
// despite the live backend's nondeterministic interleavings; the
// quantitative mean-delay tolerance is pinned by the differential
// harness (internal/live/differ_test.go), not here, because a golden
// table cannot print nondeterministic numbers. See DESIGN.md §10.

// E29Case is one policy-pair comparison of the live↔DES cross-check:
// two parameter sets identical except for the scheduling policy.
// Exported so the differential harness replays exactly this sweep.
type E29Case struct {
	Name string
	A, B sim.Params
}

// E29Cases returns the cross-check sweep. Seed and measured-packet
// budget are left zero for the caller (FigE29 applies the suite
// defaults; the differential harness sweeps its own seeds).
func E29Cases() []E29Case {
	pair := func(name string, base sim.Params, a, b sched.Kind) E29Case {
		pa, pb := base, base
		pa.Policy, pb.Policy = a, b
		return E29Case{Name: name, A: pa, B: pb}
	}
	lock16 := sim.Params{
		Paradigm: sim.Locking, Streams: 16,
		Arrival: traffic.Poisson{PacketsPerSec: 2400},
	}
	ips16 := sim.Params{
		Paradigm: sim.IPS, Streams: 16, Stacks: 16,
		Arrival: traffic.Poisson{PacketsPerSec: 2500},
	}
	touch8 := sim.Params{
		Paradigm: sim.Locking, Streams: 8, DataTouch: 35,
		Arrival: traffic.Poisson{PacketsPerSec: 4300},
	}
	return []E29Case{
		pair("Locking 16s @2400", lock16, sched.FCFS, sched.ThreadPools),
		pair("Locking 16s @2400", lock16, sched.MRU, sched.WiredStreams),
		pair("IPS 16s/16k @2500", ips16, sched.IPSRandom, sched.IPSWired),
		pair("IPS 16s/16k @2500", ips16, sched.IPSMRU, sched.IPSWired),
		pair("Locking 8s V=35 @4300", touch8, sched.FCFS, sched.WiredStreams),
	}
}

// e29Winner names the policy with the lower mean delay.
func e29Winner(a, b sim.Results) string {
	if a.MeanDelay <= b.MeanDelay {
		return a.Policy
	}
	return b.Policy
}

// FigE29 runs the cross-check: each case on both backends, all on one
// grid, and a verdict per point. Only DES-derived numbers are printed —
// live delays vary run to run, but at these margins the live winner
// (and so the verdict column) is stable.
func FigE29(c Config) *Table {
	t := &Table{
		ID:      "E29",
		Title:   "Live-backend cross-validation: policy win-order, DES vs goroutine execution",
		Columns: []string{"scenario", "A", "B", "DES A delay", "DES B delay", "DES winner", "live winner", "agree"},
	}
	cases := E29Cases()
	g := c.Grid("E29")
	type pointPair struct{ a, b *Point }
	des := make([]pointPair, len(cases))
	lv := make([]pointPair, len(cases))
	for i, cs := range cases {
		a, b := cs.Name+" "+cs.A.Policy.String(), cs.Name+" "+cs.B.Policy.String()
		des[i] = pointPair{a: g.Add(a, cs.A), b: g.Add(b, cs.B)}
		lv[i] = pointPair{a: g.AddLive("live "+a, cs.A), b: g.AddLive("live "+b, cs.B)}
	}
	g.Run()
	agreeAll := true
	for i, cs := range cases {
		da, db := des[i].a.Results(), des[i].b.Results()
		la, lb := lv[i].a.Results(), lv[i].b.Results()
		desWin, liveWin := e29Winner(da, db), e29Winner(la, lb)
		agree := "yes"
		if desWin != liveWin {
			agree = "NO"
			agreeAll = false
		}
		t.AddRow(cs.Name, cs.A.Policy.String(), cs.B.Policy.String(),
			fmtDelay(da), fmtDelay(db), desWin, liveWin, agree)
	}
	if agreeAll {
		t.Note("both backends agree on every policy ordering")
	} else {
		t.Note("BACKEND DISAGREEMENT: the live goroutine backend ranks at least one policy pair differently from the DES")
	}
	t.Note("live mean delays are nondeterministic (real goroutine interleavings) and are not printed; margins at these points are ≥5x, so the winner column is stable")
	t.Note(fmt.Sprintf("quantitative DES↔live delay tolerance is enforced by the differential harness over %d-packet runs across seeds (internal/live/differ_test.go, DESIGN.md §10)", c.packets()))
	return t
}
