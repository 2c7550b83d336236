package sim

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"affinity/internal/obs"
	"affinity/internal/sched"
	"affinity/internal/traffic"
)

// TestRecorderDoesNotPerturb is the non-perturbation contract: attaching
// a recorder must leave every simulated metric bit-identical.
func TestRecorderDoesNotPerturb(t *testing.T) {
	for _, paradigm := range []Paradigm{Locking, IPS, Hybrid} {
		policy := sched.MRU
		if paradigm != Locking {
			policy = sched.IPSMRU
		}
		plain := Run(quick(paradigm, policy))

		p := quick(paradigm, policy)
		p.Recorder = obs.NewMetrics()
		rec := Run(p)

		// Strip the fields that legitimately differ (recorder state and
		// the extra sampler events) and compare the rest.
		rec.Obs, plain.Obs = nil, nil
		rec.RecorderEvents, plain.RecorderEvents = 0, 0
		rec.EventsFired, plain.EventsFired = 0, 0
		if !reflect.DeepEqual(plain, rec) {
			t.Fatalf("%v: recorder perturbed the run:\n%+v\n%+v", paradigm, plain, rec)
		}
	}
}

// TestDecisionRecorderDoesNotPerturb extends the non-perturbation
// contract to the decision ledger: decide reads the same cost model
// beginService charges with but must leave every simulated metric
// bit-identical, and the ledger must see at least one decision at every
// decision point the paradigm exercises.
func TestDecisionRecorderDoesNotPerturb(t *testing.T) {
	for _, paradigm := range []Paradigm{Locking, IPS, Hybrid} {
		policy := sched.MRU
		if paradigm != Locking {
			policy = sched.IPSMRU
		}
		plain := Run(quick(paradigm, policy))

		p := quick(paradigm, policy)
		ledger := obs.NewLedgerRecorder()
		p.DecisionRecorder = ledger
		rec := Run(p)

		if rec.DecisionsRecorded == 0 || ledger.Len() == 0 {
			t.Fatalf("%v: ledger saw no decisions (results %d, recorder %d)",
				paradigm, rec.DecisionsRecorded, ledger.Len())
		}
		if rec.DecisionsRecorded != uint64(ledger.Len()) {
			t.Fatalf("%v: DecisionsRecorded %d != recorder's own count %d",
				paradigm, rec.DecisionsRecorded, ledger.Len())
		}
		rec.DecisionsRecorded, plain.DecisionsRecorded = 0, 0
		if !reflect.DeepEqual(plain, rec) {
			t.Fatalf("%v: decision ledger perturbed the run:\n%+v\n%+v", paradigm, plain, rec)
		}
	}
}

// TestMetricsConsistentWithResults is the acceptance criterion: the
// metrics sink's counters must match the simulator's own aggregates.
func TestMetricsConsistentWithResults(t *testing.T) {
	p := quick(Hybrid, sched.IPSMRU)
	p.Stacks = 4 // force stream sharing so spills and migrations occur
	p.Arrival = traffic.Batch{PacketsPerSec: 1000, MeanBurst: 16}
	m := obs.NewMetrics()
	p.Recorder = m
	res := Run(p)

	snap := m.Snapshot()
	if res.Obs == nil {
		t.Fatal("Results.Obs not merged from the attached metrics sink")
	}
	if res.Obs.Events != snap.Events {
		t.Fatalf("merged snapshot stale: %d vs %d events", res.Obs.Events, snap.Events)
	}
	if snap.Migrations != res.Migrations {
		t.Fatalf("migrations: recorder %d, results %d", snap.Migrations, res.Migrations)
	}
	if snap.ColdStarts != res.ColdStarts {
		t.Fatalf("cold starts: recorder %d, results %d", snap.ColdStarts, res.ColdStarts)
	}
	if snap.Spills != res.Spills {
		t.Fatalf("spills: recorder %d, results %d", snap.Spills, res.Spills)
	}
	if res.Spills == 0 {
		t.Fatal("burst run produced no spills; scenario too tame to test")
	}
	if snap.Arrivals != res.Arrivals {
		t.Fatalf("arrivals: recorder %d, results %d", snap.Arrivals, res.Arrivals)
	}
	// Completions include warmup packets, measured ones don't.
	if snap.Completions < res.Completed {
		t.Fatalf("completions: recorder %d < measured %d", snap.Completions, res.Completed)
	}
	// Packets still in service when the run stops have a dispatch but
	// no completion; there can be at most one per processor.
	inFlight := snap.Dispatches - snap.Completions
	if snap.Dispatches < snap.Completions || inFlight > uint64(len(res.PerProcBusyTime)) {
		t.Fatalf("dispatches %d vs completions %d: more in-flight packets than processors",
			snap.Dispatches, snap.Completions)
	}
	if res.RecorderEvents != snap.Events {
		t.Fatalf("RecorderEvents %d != recorder's own count %d", res.RecorderEvents, snap.Events)
	}
	if res.EventsFired == 0 {
		t.Fatal("EventsFired not populated")
	}
	// The recorder's closed busy intervals are a lower bound on the
	// simulator's exact busy-time integrals.
	for i, closed := range snap.PerProcBusy {
		if i >= len(res.PerProcBusyTime) {
			t.Fatalf("recorder saw processor %d beyond the run's %d", i, len(res.PerProcBusyTime))
		}
		if closed > res.PerProcBusyTime[i]+1e-6 {
			t.Fatalf("proc %d: closed busy %v exceeds exact integral %v",
				i, closed, res.PerProcBusyTime[i])
		}
	}
}

// TestPerProcBusyMatchesUtilization ties the new per-processor integrals
// to the legacy aggregate.
func TestPerProcBusyMatchesUtilization(t *testing.T) {
	res := Run(quick(Locking, sched.MRU))
	if len(res.PerProcBusyTime) == 0 {
		t.Fatal("no per-processor busy times")
	}
	var sum float64
	for _, b := range res.PerProcBusyTime {
		if b < 0 {
			t.Fatalf("negative busy time: %v", res.PerProcBusyTime)
		}
		sum += b
	}
	want := res.Utilization * float64(len(res.PerProcBusyTime)) * float64(res.SimTime)
	if math.Abs(sum-want) > 1e-6*math.Max(1, want) {
		t.Fatalf("sum busy %v inconsistent with utilization (%v)", sum, want)
	}
}

func TestAffinityStatsInResults(t *testing.T) {
	mru := Run(quick(Locking, sched.MRU))
	if mru.Placements == 0 || mru.AffinityHits == 0 {
		t.Fatalf("MRU run reported hits=%d placements=%d", mru.AffinityHits, mru.Placements)
	}
	if mru.AffinityHits > mru.Placements {
		t.Fatalf("hits %d exceed placements %d", mru.AffinityHits, mru.Placements)
	}
	fcfs := Run(quick(Locking, sched.FCFS))
	if fcfs.AffinityHits != 0 {
		t.Fatalf("FCFS baseline reported %d affinity hits", fcfs.AffinityHits)
	}
	if fcfs.Placements == 0 {
		t.Fatal("FCFS made no placement decisions")
	}
}

func TestChromeTraceEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	ct := obs.NewChromeTrace(&buf)
	p := quick(Locking, sched.MRU)
	p.MeasuredPackets = 300
	p.Recorder = ct
	res := Run(p)
	if err := ct.Close(); err != nil {
		t.Fatalf("closing trace: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	procs := map[float64]bool{}
	var execB, execE, asyncB, asyncE, counters int
	for _, ev := range events {
		switch ev["ph"] {
		case "B":
			execB++
			procs[ev["tid"].(float64)] = true
		case "E":
			execE++
		case "b":
			asyncB++
		case "e":
			asyncE++
		case "C":
			counters++
		}
	}
	// Packets mid-service when the run stops leave open "B" slices
	// (Perfetto renders those fine); at most one per processor.
	if execB == 0 || execB < execE || execB-execE > 8 {
		t.Fatalf("unbalanced exec slices: %d B, %d E", execB, execE)
	}
	if asyncE == 0 || asyncB < asyncE {
		t.Fatalf("packet spans broken: %d b, %d e", asyncB, asyncE)
	}
	// Per-processor tracks: the run keeps all 8 processors busy.
	if len(procs) != 8 {
		t.Fatalf("exec slices span %d processor tracks, want 8", len(procs))
	}
	if counters == 0 {
		t.Fatal("no gauge counter samples in the trace")
	}
	if res.RecorderEvents == 0 {
		t.Fatal("run reported no recorder events")
	}
}

func TestTotalEventsFiredAccumulates(t *testing.T) {
	before := TotalEventsFired()
	res := Run(quick(Locking, sched.MRU))
	after := TotalEventsFired()
	if after-before < res.EventsFired {
		t.Fatalf("global counter advanced %d, run fired %d", after-before, res.EventsFired)
	}
}
