package exp

import (
	"fmt"
	"math"

	"affinity/internal/des"
	"affinity/internal/faults"
	"affinity/internal/obs"
	"affinity/internal/sched"
	"affinity/internal/sim"
	"affinity/internal/traffic"
)

// Fault and graceful-degradation experiments (E26–E28): the paper
// evaluates affinity policies only on an always-healthy machine with
// unbounded queues; these ask its question under stress — which policy
// degrades most gracefully when a processor dies or queues overflow?

// e26Window is the single-processor outage used by E26 and E28:
// processor 0 fails at 250 ms and recovers at 400 ms, inside the
// measured region (warmup ends at 200 ms) for quick and full budgets.
const (
	e26Down = 250 * des.Millisecond
	e26Up   = 400 * des.Millisecond
)

// E26Plan returns the outage plan (exported for the live backend's
// differential harness, which replays it on both backends).
func E26Plan() *faults.Plan {
	return (&faults.Plan{}).Down(e26Down, 0).Up(e26Up, 0)
}

// FigE26 compares every policy's resilience to a single-processor
// failure window: the same load healthy and degraded, reporting delay
// inflation, forced migrations, and goodput through the outage.
// Wired-Streams and IPS-Wired re-home their wired entities off the dead
// processor (and pay a cold-cache failback), MRU forgets dead
// affinities, FCFS has no affinity state to lose — so the no-affinity
// baselines bound how much of the degradation is affinity-specific.
func FigE26(c Config) *Table {
	t := &Table{
		ID:      "E26",
		Title:   "Policy resilience: processor 0 down 250–400 ms (8 streams, 2500 pkt/s/stream)",
		Columns: []string{"paradigm/policy", "healthy delay", "faulted delay", "inflation", "migrations", "goodput (pkt/s)"},
	}
	g := c.Grid("E26")
	type row struct {
		name             string
		healthy, faulted *Point
	}
	var rows []row
	for _, pc := range []struct {
		paradigm sim.Paradigm
		policy   sched.Kind
	}{
		{sim.Locking, sched.FCFS},
		{sim.Locking, sched.MRU},
		{sim.Locking, sched.ThreadPools},
		{sim.Locking, sched.WiredStreams},
		{sim.IPS, sched.IPSWired},
		{sim.IPS, sched.IPSMRU},
		{sim.IPS, sched.IPSRandom},
	} {
		base := sim.Params{
			Paradigm: pc.paradigm, Policy: pc.policy, Streams: 8,
			Arrival: traffic.Poisson{PacketsPerSec: 2500},
		}
		name := fmt.Sprintf("%v/%v", pc.paradigm, pc.policy)
		healthy := g.Add(name+" healthy", base)
		base.Faults = E26Plan()
		faulted := g.Add(name+" faulted", base)
		rows = append(rows, row{name, healthy, faulted})
	}
	g.Run()
	for _, r := range rows {
		h, f := r.healthy.Results(), r.faulted.Results()
		t.AddRow(r.name, fmtDelay(h), fmtDelay(f),
			fmt.Sprintf("%.2fx", f.MeanDelay/h.MeanDelay),
			f.Migrations, fmt.Sprintf("%.0f", f.GoodputPPS))
	}
	t.Note("faulted runs lose processor 0 for 150 ms mid-measurement; inflation is faulted/healthy mean delay")
	t.Note("migrations under Wired-Streams/IPS-Wired are the re-homing at work — a fault-free wired run has none")
	return t
}

// FigE27 sweeps the per-queue capacity bound under sustained overload:
// bounded queues trade unbounded delay for explicit drops, and the
// sweep shows where each paradigm's goodput peaks. The ∞ row is the
// paper's original unbounded model, where nothing drops and the
// backlog (and delay) grows with the horizon instead.
func FigE27(c Config) *Table {
	t := &Table{
		ID:      "E27",
		Title:   "Bounded queues under overload: drops and goodput vs queue bound (6000 pkt/s/stream)",
		Columns: []string{"queue bound", "MRU drop %", "MRU goodput", "IPS-Wired drop %", "IPS-Wired goodput"},
	}
	depths := []int{1, 2, 4, 8, 16, 32, 0}
	if c.Quick {
		depths = []int{1, 8, 32, 0}
	}
	g := c.Grid("E27")
	type row struct {
		depth    int
		mru, ips *Point
	}
	var rows []row
	for _, d := range depths {
		arr := traffic.Poisson{PacketsPerSec: 6000}
		mru := g.Add(fmt.Sprintf("MRU bound=%d", d), sim.Params{
			Paradigm: sim.Locking, Policy: sched.MRU, Streams: 8,
			Arrival: arr, MaxQueueDepth: d,
		})
		ips := g.Add(fmt.Sprintf("IPS-Wired bound=%d", d), sim.Params{
			Paradigm: sim.IPS, Policy: sched.IPSWired, Streams: 8,
			Arrival: arr, MaxQueueDepth: d,
		})
		rows = append(rows, row{d, mru, ips})
	}
	g.Run()
	for _, r := range rows {
		bound := "∞"
		if r.depth > 0 {
			bound = fmt.Sprintf("%d", r.depth)
		}
		mru, ips := r.mru.Results(), r.ips.Results()
		t.AddRow(bound,
			fmt.Sprintf("%.1f%%", 100*mru.DropFraction), fmt.Sprintf("%.0f", mru.GoodputPPS),
			fmt.Sprintf("%.1f%%", 100*ips.DropFraction), fmt.Sprintf("%.0f", ips.GoodputPPS))
	}
	t.Note("offered load (48000 pkt/s aggregate) exceeds capacity; the Locking bound caps the shared queue, the IPS bound caps each stack queue")
	t.Note("∞ reproduces the unbounded model: zero drops, horizon-limited backlog")
	return t
}

// e28Policies are the policies whose failback transient E28 measures:
// MRU re-learns affinity lazily, while the wired policies force their
// entities straight back onto the recovered (cold) processor.
var e28Policies = []struct {
	name     string
	paradigm sim.Paradigm
	policy   sched.Kind
}{
	{"Locking/MRU", sim.Locking, sched.MRU},
	{"Locking/Wired-Streams", sim.Locking, sched.WiredStreams},
	{"IPS/IPS-Wired", sim.IPS, sched.IPSWired},
}

// proc0Starts records processor 0's exec_start events: one per service
// decision, with the start time (T), the charged execution time (Dur)
// and the displacing references the entity suffered (Val, +Inf cold).
type proc0Starts []obs.Event

func (r *proc0Starts) Record(e obs.Event) {
	if e.Kind == obs.KindExecStart && e.Proc == 0 {
		*r = append(*r, e)
	}
}

// FigE28 measures the recovery transient after failback: processor 0
// returns at 400 ms with a cold cache, and its per-decision exec_start
// events show how long its charged execution times stay inflated before
// the reload transients die out. The baseline is the processor's
// pre-fault mean; recovery is the first 8-decision window back within
// 10 % of it.
func FigE28(c Config) *Table {
	t := &Table{
		ID:      "E28",
		Title:   "Recovery transient after failback: processor 0 cold-restarts at 400 ms",
		Columns: []string{"paradigm/policy", "pre-fault exec (µs)", "first window back (µs)", "transient (µs)", "cold starts on proc 0"},
	}
	g := c.Grid("E28")
	starts := make([]proc0Starts, len(e28Policies))
	for i, pc := range e28Policies {
		g.Add(pc.name, sim.Params{
			Paradigm: pc.paradigm, Policy: pc.policy, Streams: 8,
			Arrival:  traffic.Poisson{PacketsPerSec: 1000},
			Faults:   E26Plan(),
			Recorder: &starts[i],
		})
	}
	g.Run()
	const window = 8
	for i, pc := range e28Policies {
		baseline, ok := preFaultExec(starts[i])
		if !ok {
			t.AddRow(pc.name, "—", "—", "—", 0)
			continue
		}
		first, transient, cold, recovered := failbackTransient(starts[i], baseline, window)
		cell := fmt.Sprintf("%.0f", transient)
		if !recovered {
			cell = fmt.Sprintf(">%.0f", transient) // still inflated at end of trace
		}
		t.AddRow(pc.name, fmt.Sprintf("%.1f", baseline),
			fmt.Sprintf("%.1f", first), cell, cold)
	}
	t.Note("transient: time from recovery (400 ms) until an %d-decision window of proc-0 exec times returns within 10%% of the pre-fault mean", window)
	t.Note("cold starts count proc-0 decisions after failback with no cached footprint (XRefs = +Inf) — the entities paying the full reload transient")
	return t
}

// preFaultExec returns the mean charged execution time of processor-0
// decisions in the steady window before the outage (150–250 ms).
func preFaultExec(starts []obs.Event) (float64, bool) {
	var sum float64
	n := 0
	for _, e := range starts {
		if at := des.Time(e.T); at >= 150*des.Millisecond && at < e26Down {
			sum += e.Dur
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// failbackTransient scans processor-0 decisions after the recovery at
// e26Up: it returns the first window-mean exec time, the time from
// recovery until a window-mean returns within 10 % of baseline (or the
// last decision's offset when it never does, recovered = false), and
// the number of cold starts paid on the recovered processor.
func failbackTransient(proc0 []obs.Event, baseline float64, window int) (first, transient float64, cold int, recovered bool) {
	var execs []float64
	var starts []des.Time
	for _, e := range proc0 {
		if des.Time(e.T) < e26Up {
			continue
		}
		execs = append(execs, e.Dur)
		starts = append(starts, des.Time(e.T))
		if math.IsInf(e.Val, 1) {
			cold++
		}
	}
	if len(execs) == 0 {
		return 0, 0, 0, false
	}
	mean := func(lo, hi int) float64 {
		s := 0.0
		for _, x := range execs[lo:hi] {
			s += x
		}
		return s / float64(hi-lo)
	}
	if len(execs) < window {
		return mean(0, len(execs)), float64(starts[len(starts)-1] - e26Up), cold, false
	}
	first = mean(0, window)
	for i := 0; i+window <= len(execs); i++ {
		if mean(i, i+window) <= 1.1*baseline {
			return first, float64(starts[i+window-1] - e26Up), cold, true
		}
	}
	return first, float64(starts[len(starts)-1] - e26Up), cold, false
}
