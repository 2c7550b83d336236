package bench

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"time"
)

// Config is one benchmark run.
type Config struct {
	Workloads []string
	Seed      int64
	// Seconds, when above 0, runs rounds until the timed operations have
	// taken that much host time; otherwise the run has Rounds rounds.
	Seconds float64
	// Trace selects the traced run, which reports the per-layer metrics
	// instead of the end-to-end ones.
	Trace bool
	Root  string // repository root
	// Base, when set, is a baseline build. Every workload then also runs
	// in a worker of the baseline, and in each round the two builds' ops
	// of a workload run back to back, alternating which goes first, so
	// load from elsewhere on the host slows both alike.
	Base *Side
}

// Side is one build of the benchmark: its affinitybench executable and
// the repository root it was built from.
type Side struct{ Exe, Root string }

// Rounds is the number of timed rounds, one op per workload each, of a
// run without a time budget.
const Rounds = 21

// launches is how many times each worker starts in an untraced run:
// three set-up samples, and per-process layout luck averages out.
const launches = 3

// tracedRounds alternate untraced and traced operations: three of each.
const tracedRounds = 6

// Result is a run's output, written as JSON.
type Result struct {
	Host    Host    `json:"host"`
	Seed    int64   `json:"seed"`
	Trace   bool    `json:"trace"`
	Seconds float64 `json:"seconds"` // the time budget; 0 for a run of Rounds rounds
	// Rounds is how many rounds ran.
	Rounds    int              `json:"rounds"`
	Workloads []WorkloadResult `json:"workloads"`
}

// WorkloadResult is one workload's metrics and failure counts.
type WorkloadResult struct {
	Name      string            `json:"name"`
	Attempted int               `json:"attempted"` // cold operations included
	Failed    int               `json:"failed"`
	FailFrac  float64           `json:"fail_frac"`
	TimedOps  int               `json:"timed_ops"`
	Errors    []string          `json:"errors,omitempty"`
	OpP50     float64           `json:"op_p50_s,omitempty"` // median timed op, for reference
	Metrics   map[string]Metric `json:"metrics"`
	// Samples holds the raw values the metrics summarize: set-up time
	// and peak RSS per launch, host and CPU seconds per timed op.
	Samples map[string][]float64 `json:"samples,omitempty"`
}

// tally accumulates one workload's replies.
type tally struct {
	attempted, failed  int
	errs               []string
	setup, rss         []float64
	wall, cpu, evRates []float64
	layers             map[string]float64
}

func (t *tally) add(op *OpReport, timed bool) {
	t.attempted++
	if op.Err != "" {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, op.Err)
		}
	}
	if timed {
		t.wall = append(t.wall, op.WallS)
		t.cpu = append(t.cpu, op.CPUS)
		t.evRates = append(t.evRates, float64(op.Events)/op.WallS)
	}
}

// Run executes the benchmark: each workload in its own worker process,
// one closed-loop operation in flight at a time, rounds signalling the
// workers in turn with the starting workload rotating each round. An
// untraced run restarts every worker at one and two thirds of the run.
// It returns this build's result and, when cfg.Base is set, the
// baseline's.
func Run(cfg Config) (res, base *Result, err error) {
	if cfg.Trace && cfg.Base != nil {
		return nil, nil, errors.New("a traced run measures one build")
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	sides := []Side{{exe, cfg.Root}}
	if cfg.Base != nil {
		sides = append(sides, *cfg.Base)
	}
	n := len(cfg.Workloads)
	tallies := make([][]tally, len(sides)) // [side][workload]
	for s := range sides {
		tallies[s] = make([]tally, n)
	}
	segments := launches
	if cfg.Trace {
		segments = 1
	}
	var timed time.Duration
	round := 0
	for seg := 0; seg < segments; seg++ {
		workers := make([][]*worker, len(sides))
		stopAll := func() {
			for _, ws := range workers {
				for _, w := range ws {
					if w != nil {
						w.kill()
					}
				}
			}
		}
		for s, side := range sides {
			workers[s] = make([]*worker, n)
			for i, name := range cfg.Workloads {
				w, cold, err := startWorker(cfg, side, s == 0, name)
				if err != nil {
					stopAll()
					return nil, nil, err
				}
				workers[s][i] = w
				t := &tallies[s][i]
				t.setup = append(t.setup, w.setup.Seconds())
				t.rss = append(t.rss, cold.MaxRSSMB)
				t.add(cold.Op, false)
				fmt.Fprintf(os.Stderr, "%s: set up in %.2fs\n", w.name, w.setup.Seconds())
			}
		}
		for first := round; !cfg.segmentDone(seg, round, first, timed); round++ {
			for i := range n {
				k := (round + i) % n
				for j := range sides {
					s := (round + j) % len(sides)
					cmd := cmdOp
					if cfg.Trace && round%2 == 1 {
						cmd = cmdTraced
					}
					t0 := time.Now()
					r, err := workers[s][k].call(cmd)
					if err != nil {
						stopAll()
						return nil, nil, err
					}
					timed += time.Since(t0)
					tallies[s][k].add(r.Op, !cfg.Trace)
					fmt.Fprintf(os.Stderr, "%s: %s %.3fs\n", workers[s][k].name, cmd, r.Op.WallS)
				}
			}
		}
		for s, ws := range workers {
			for i, w := range ws {
				if cfg.Trace {
					r, err := w.call(cmdLayers)
					if err != nil {
						stopAll()
						return nil, nil, err
					}
					tallies[s][i].layers = r.Layers
				}
				if err := w.stop(); err != nil {
					stopAll()
					return nil, nil, err
				}
			}
		}
	}
	results := make([]*Result, len(sides))
	for s, side := range sides {
		r := &Result{Host: HostInfo(side.Root), Seed: cfg.Seed, Trace: cfg.Trace,
			Seconds: cfg.Seconds, Rounds: round}
		for i, name := range cfg.Workloads {
			r.Workloads = append(r.Workloads, tallies[s][i].result(name, cfg.Trace))
		}
		results[s] = r
	}
	if cfg.Base != nil {
		base = results[1]
	}
	return results[0], base, nil
}

// segmentDone reports whether launch seg has run its share of the
// rounds, or of the time budget; every launch runs at least one round.
func (cfg Config) segmentDone(seg, round, first int, timed time.Duration) bool {
	switch {
	case cfg.Trace:
		return round >= tracedRounds
	case round == first:
		return false
	case cfg.Seconds > 0:
		return timed.Seconds() >= cfg.Seconds*float64(seg+1)/launches
	}
	return round >= Rounds*(seg+1)/launches
}

func (t *tally) result(name string, trace bool) WorkloadResult {
	r := WorkloadResult{Name: name, Attempted: t.attempted, Failed: t.failed,
		FailFrac: float64(t.failed) / float64(max(t.attempted, 1)), TimedOps: len(t.wall),
		Errors: t.errs, Metrics: map[string]Metric{}}
	if trace {
		for _, d := range PerLayer {
			r.Metrics[d.Name] = Metric{t.layers[d.Name], d.Unit}
		}
		return r
	}
	// Every op does the same, output-checked work, so interference from
	// the host can only add to its time: the fastest op is the steadiest
	// estimate of what the code costs. Set-up time and the peak RSS of a
	// worker that has run one op, as a user's process would, are medians
	// of the launches.
	vals := map[string]float64{
		"setup_s":      median(t.setup),
		"op_min_s":     slices.Min(t.wall),
		"events_per_s": slices.Max(t.evRates),
		"cpu_s_per_op": slices.Min(t.cpu),
		"max_rss_mb":   median(t.rss),
	}
	for _, d := range EndToEnd {
		r.Metrics[d.Name] = Metric{vals[d.Name], d.Unit}
	}
	r.OpP50 = median(t.wall)
	r.Samples = map[string][]float64{"setup_s": t.setup, "max_rss_mb": t.rss, "op_s": t.wall, "cpu_s": t.cpu}
	return r
}

// worker is a running worker process.
type worker struct {
	name  string
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Scanner
	setup time.Duration
}

// startWorker launches the named workload's worker of one side and waits
// for its set-up (inputs, reference output and cold operation) to
// finish. A baseline worker's name is marked as such in the progress
// lines.
func startWorker(cfg Config, side Side, own bool, name string) (*worker, Reply, error) {
	spans := filepath.Join(cfg.Root, OutDir, fmt.Sprintf("spans-%s-seed%d.json", name, cfg.Seed))
	cmd := exec.Command(side.Exe, "worker", "-workload", name,
		"-seed", strconv.FormatInt(cfg.Seed, 10), "-root", side.Root, "-spans", spans)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, Reply{}, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, Reply{}, err
	}
	if !own {
		name += " (base)"
	}
	w := &worker{name: name, cmd: cmd, in: in, out: bufio.NewScanner(out)}
	w.out.Buffer(nil, 1<<20)
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, Reply{}, fmt.Errorf("start %s worker: %w", name, err)
	}
	r, err := w.read()
	w.setup = time.Since(t0)
	if err != nil {
		w.kill()
		return nil, Reply{}, err
	}
	return w, r, nil
}

func (w *worker) call(cmd string) (Reply, error) {
	if _, err := io.WriteString(w.in, cmd+"\n"); err != nil {
		return Reply{}, fmt.Errorf("%s worker: %w", w.name, err)
	}
	return w.read()
}

func (w *worker) read() (Reply, error) {
	if !w.out.Scan() {
		err := w.out.Err()
		if err == nil {
			err = errors.New("exited")
		}
		return Reply{}, fmt.Errorf("%s worker: %w", w.name, err)
	}
	var r Reply
	if err := json.Unmarshal(w.out.Bytes(), &r); err != nil {
		return Reply{}, fmt.Errorf("%s worker reply: %w", w.name, err)
	}
	if r.Op == nil && r.Layers == nil {
		return Reply{}, fmt.Errorf("%s worker: empty reply", w.name)
	}
	return r, nil
}

// stop closes the worker's input, which ends its loop, and waits for it.
func (w *worker) stop() error {
	w.in.Close()
	if err := w.cmd.Wait(); err != nil {
		return fmt.Errorf("%s worker: %w", w.name, err)
	}
	return nil
}

func (w *worker) kill() {
	w.in.Close()
	w.cmd.Process.Kill()
	w.cmd.Wait()
}
