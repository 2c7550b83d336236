// Package bench is the repository benchmark: four workloads that run the
// simulator's real entry points (the quick experiment suite, two dominant
// DES runs and one live-backend run), check every operation's output,
// and measure host time end to end and layer by layer. It calls only the
// public functions of the simulator's internal packages; nothing in the
// simulator knows it is being measured. See README.md for the metric
// definitions and cmd/affinitybench for the command.
package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"affinity/internal/des"
	"affinity/internal/exp"
	"affinity/internal/live"
	"affinity/internal/sched"
	"affinity/internal/sim"
	"affinity/internal/workload"
)

// Workload names, in the order the coordinator runs them.
const (
	SuiteQuick       = "suite-quick"
	DESWired96       = "des-wired-96"
	DESMRUZipfBurst  = "des-mru-zipf-burst"
	LiveMRUZipfBurst = "live-mru-zipf-burst"
)

// Names lists every workload.
var Names = []string{SuiteQuick, DESWired96, DESMRUZipfBurst, LiveMRUZipfBurst}

// GoldenPath is the quick suite's committed seed-1 output, relative to
// the repository root.
const GoldenPath = "testdata/paperfigs_quick.golden"

// liveDelayTolerance is the DES↔live relative mean-delay bound the live
// backend's differential harness documents for unsaturated points.
const liveDelayTolerance = 0.005

// zipfBurst is E35's operating point at Zipf exponent 1.0: eight Zipf-
// skewed streams sharing 14000 pkt/s, ON/OFF modulated 20/40 ms.
func zipfBurst() *workload.Spec {
	return &workload.Spec{
		Name: "zipf-burst-1",
		Classes: []workload.Class{
			{Name: "flows", Model: "poisson", Streams: 8, RatePPS: 14000, Zipf: 1.0,
				OnUS: 20000, OffUS: 40000},
		},
	}
}

// Params returns the simulation a single-run workload executes, with its
// measured-packet budget multiplied by scale (1 is the benchmark's size;
// tests shrink it). For suite-quick it returns the suite's critical-path
// point, E35's Zipf-1.0 MRU run at the quick budget, which the per-layer
// probes use as the suite's representative simulation.
func Params(name string, seed int64, scale float64) (sim.Params, error) {
	pkts := func(n int) int { return max(int(float64(n)*scale), 1000) }
	switch name {
	case SuiteQuick:
		return sim.Params{Paradigm: sim.Locking, Policy: sched.MRU, Workload: zipfBurst(),
			DataTouch: 10, Seed: seed, MeasuredPackets: 3000}, nil
	case DESWired96:
		return sim.Params{Paradigm: sim.IPS, Policy: sched.IPSWired,
			Workload: &workload.Spec{Name: "wired-96", Classes: []workload.Class{
				{Name: "flows", Model: "poisson", Streams: 96, RatePPS: 96 * 500}}},
			Seed: seed, MeasuredPackets: pkts(3_000_000)}, nil
	case DESMRUZipfBurst:
		return sim.Params{Paradigm: sim.Locking, Policy: sched.MRU, Workload: zipfBurst(),
			DataTouch: 10, Seed: seed, MeasuredPackets: pkts(1_500_000), MaxTime: 150 * des.Second}, nil
	case LiveMRUZipfBurst:
		return sim.Params{Paradigm: sim.Locking, Policy: sched.MRU, Workload: zipfBurst(),
			DataTouch: 10, Seed: seed, MeasuredPackets: pkts(500_000), MaxTime: 150 * des.Second}, nil
	}
	return sim.Params{}, fmt.Errorf("unknown workload %q (want one of %v)", name, Names)
}

// Procs is the GOMAXPROCS a workload's worker process runs with; 0 keeps
// the default, nproc. The live backend hands every simulated event from
// one goroutine to another. With a second P, a hand-off can wake another
// OS thread on another CPU, and on a shared virtual machine the op time
// then tracked the host's load more than the backend's work (README.md,
// Results). With one P, the hand-offs stay inside the Go scheduler.
func Procs(name string) int {
	if name == LiveMRUZipfBurst {
		return 1
	}
	return 0
}

// Workload is one workload's inputs and reference output, built once per
// worker process.
type Workload struct {
	Name string
	Seed int64

	// params is the single run a DES or live workload executes; for the
	// suite it is the representative point the probes use.
	params  sim.Params
	backend func(sim.Params) sim.Results // nil for the suite

	// golden is the suite's expected stdout; ref the single-run
	// workloads' expected Results (the cold op's for the DES, the DES
	// reference run for the live backend).
	golden []byte
	ref    sim.Results
}

// Op is the outcome of one operation.
type Op struct {
	Wall   time.Duration
	CPU    time.Duration
	Events uint64
	Err    error // nil when every output check passed

	// Submissions and Hits are the suite's sim.Pool counts.
	Submissions, Hits uint64
	// Critical and Busy are the run layer's slowest call and the sum of
	// its calls: the Experiment.Run calls for the suite, the single run
	// otherwise.
	Critical, Busy time.Duration
	Render, Check  time.Duration
	// Results is the single run's output (zero for the suite).
	Results sim.Results

	Runtime RuntimeDelta
}

// NewWorkload builds the named workload's inputs from seed and loads or
// computes its reference output. root is the repository root (for the
// suite's golden file). For the live workload this runs the DES
// reference simulation.
func NewWorkload(name string, seed int64, scale float64, root string) (*Workload, error) {
	p, err := Params(name, seed, scale)
	if err != nil {
		return nil, err
	}
	w := &Workload{Name: name, Seed: seed, params: p}
	switch name {
	case SuiteQuick:
		if seed == 1 {
			w.golden, err = os.ReadFile(filepath.Join(root, GoldenPath))
			if err != nil {
				return nil, fmt.Errorf("suite-quick reference: %w", err)
			}
		}
	case DESWired96, DESMRUZipfBurst:
		w.backend = sim.Run
	case LiveMRUZipfBurst:
		w.backend = live.Run
		w.ref = sim.Run(p)
		if err := checkRun(w.ref, p); err != nil {
			return nil, fmt.Errorf("live reference DES run: %w", err)
		}
	}
	return w, nil
}

// Cold runs the untimed first operation. Where no reference exists yet
// (the suite at seeds other than 1, the DES workloads) its output
// becomes the reference every later operation must reproduce; the cold
// op is still checked against everything that does not need one.
func (w *Workload) Cold() Op {
	if w.backend == nil {
		op, out := w.suiteOp(nil, 0)
		if w.golden == nil {
			w.golden = out
		}
		return op
	}
	op := w.runOp(nil, 0, nil)
	if w.ref.Completed == 0 && op.Err == nil {
		w.ref = op.Results
	}
	return op
}

// Op runs operation id and checks its output. A traced operation has a
// non-nil span log, which records a span around each layer call, and a
// single-run workload's traced operation also streams its events to
// rec, the host-time phase recorder.
func (w *Workload) Op(sp *Spans, rec *PhaseRecorder, id int) Op {
	if w.backend == nil {
		op, _ := w.suiteOp(sp, id)
		return op
	}
	return w.runOp(sp, id, rec)
}

// suiteOp runs every quick experiment concurrently through one fresh
// pool, as cmd/paperfigs does, renders the tables and compares the bytes
// with the reference.
func (w *Workload) suiteOp(sp *Spans, id int) (Op, []byte) {
	var op Op
	m := startMeter()
	root := sp.Begin("op:"+w.Name, -1, id, 0)
	experiments := exp.All()
	pool := sim.NewPool(runtime.GOMAXPROCS(0))
	cfg := exp.Config{Quick: true, Seed: w.Seed, Pool: pool}
	tables := make([]*exp.Table, len(experiments))
	durs := make([]time.Duration, len(experiments))
	ev0 := sim.TotalEventsFired()
	var wg sync.WaitGroup
	for i, e := range experiments {
		wg.Add(1)
		go func(i int, e exp.Experiment) {
			defer wg.Done()
			s := sp.Begin("exp:"+e.ID, root, id, i+1)
			t0 := time.Now()
			tables[i] = e.Run(cfg)
			durs[i] = time.Since(t0)
			sp.End(s)
		}(i, e)
	}
	wg.Wait()
	op.Events = sim.TotalEventsFired() - ev0
	for _, d := range durs {
		op.Busy += d
		op.Critical = max(op.Critical, d)
	}
	t0 := time.Now()
	s := sp.Begin("render:Table.Fprint", root, id, 0)
	var out bytes.Buffer
	for _, t := range tables {
		t.Fprint(&out)
		out.WriteByte('\n')
	}
	sp.End(s)
	op.Render = time.Since(t0)
	op.Hits, op.Submissions = pool.Stats()
	op.Submissions += op.Hits
	m.stop(&op)
	sp.End(root)

	t0 = time.Now()
	s = sp.Begin("check", -1, id, 0)
	if w.golden != nil && !bytes.Equal(out.Bytes(), w.golden) {
		op.Err = fmt.Errorf("suite output differs from the reference (%d vs %d bytes)", out.Len(), len(w.golden))
	}
	sp.End(s)
	op.Check = time.Since(t0)
	return op, out.Bytes()
}

// runOp executes the single simulation on the workload's backend,
// renders it as cmd/affinitysim -json does, and checks it.
func (w *Workload) runOp(sp *Spans, id int, rec *PhaseRecorder) Op {
	var op Op
	p := w.params
	if rec != nil {
		p.Recorder = rec
		rec.begin()
	}
	m := startMeter()
	root := sp.Begin("op:"+w.Name, -1, id, 0)
	layer := "sim.Run"
	if w.Name == LiveMRUZipfBurst {
		layer = "live.Run"
	}
	s := sp.Begin(layer, root, id, 0)
	t0 := time.Now()
	res := w.backend(p)
	op.Busy = time.Since(t0)
	op.Critical = op.Busy
	sp.End(s)
	t0 = time.Now()
	s = sp.Begin("render:Results.MarshalJSON", root, id, 0)
	_, err := json.Marshal(res)
	sp.End(s)
	op.Render = time.Since(t0)
	op.Events = res.EventsFired
	m.stop(&op)
	sp.End(root)

	t0 = time.Now()
	s = sp.Begin("check", -1, id, 0)
	op.Results = res
	if rec != nil {
		// A recorder only observes: apart from the events it was sent
		// and the gauge-sampling events that feed it, a traced run's
		// Results equal an untraced run's.
		res.RecorderEvents, res.EventsFired = 0, w.ref.EventsFired
	}
	if err != nil {
		op.Err = fmt.Errorf("render: %w", err)
	} else {
		op.Err = w.checkResults(res, p)
	}
	sp.End(s)
	op.Check = time.Since(t0)
	return op
}

// checkResults compares a single run with the reference: bit-identical
// for the DES, same arrivals and mean delay within the differential
// tolerance for the live backend.
func (w *Workload) checkResults(res sim.Results, p sim.Params) error {
	if err := checkRun(res, p); err != nil {
		return err
	}
	if w.Name == LiveMRUZipfBurst {
		if res.Arrivals != w.ref.Arrivals {
			return fmt.Errorf("live arrivals %d, DES reference %d", res.Arrivals, w.ref.Arrivals)
		}
		if rel := math.Abs(res.MeanDelay-w.ref.MeanDelay) / w.ref.MeanDelay; !(rel <= liveDelayTolerance) {
			return fmt.Errorf("live mean delay %v vs DES %v: relative error %.4g above %v",
				res.MeanDelay, w.ref.MeanDelay, rel, liveDelayTolerance)
		}
		return nil
	}
	if w.ref.Completed != 0 && !reflect.DeepEqual(res, w.ref) {
		return fmt.Errorf("results differ from the reference run (mean delay %v vs %v, events %d vs %d)",
			res.MeanDelay, w.ref.MeanDelay, res.EventsFired, w.ref.EventsFired)
	}
	return nil
}

// checkRun verifies what any single run must satisfy: the simulator's
// invariants hold, and the run stopped because it measured its packet
// budget, not because it hit MaxTime.
func checkRun(res sim.Results, p sim.Params) error {
	if err := sim.CheckInvariants(res); err != nil {
		return err
	}
	p = p.WithDefaults()
	if res.Completed < uint64(p.MeasuredPackets) || res.SimTime >= p.MaxTime {
		return fmt.Errorf("run stopped at %v with %d of %d measured packets (MaxTime %v)",
			res.SimTime, res.Completed, p.MeasuredPackets, p.MaxTime)
	}
	return nil
}
