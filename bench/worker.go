package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
)

// Commands the coordinator sends a worker, one per line on its stdin.
const (
	cmdOp     = "op"     // one untraced operation
	cmdTraced = "traced" // one traced operation
	cmdLayers = "layers" // the per-layer metrics of the ops so far; writes the span file
)

// Reply is one line a worker writes to its stdout: the first after set-up
// (carrying the cold operation and the worker's peak RSS so far), then
// one per command.
type Reply struct {
	Op       *OpReport          `json:"op,omitempty"`
	Layers   map[string]float64 `json:"layers,omitempty"`
	MaxRSSMB float64            `json:"max_rss_mb,omitempty"`
}

// OpReport is the part of an Op the coordinator aggregates.
type OpReport struct {
	WallS  float64 `json:"wall_s"`
	CPUS   float64 `json:"cpu_s"`
	Events uint64  `json:"events"`
	Err    string  `json:"err,omitempty"`
}

func report(op Op) *OpReport {
	r := &OpReport{WallS: op.Wall.Seconds(), CPUS: op.CPU.Seconds(), Events: op.Events}
	if op.Err != nil {
		r.Err = op.Err.Error()
	}
	return r
}

// Serve is a worker process's main loop: it builds the named workload,
// runs the untimed cold operation, and then answers the coordinator's
// commands until in closes. spanFile receives the Chrome-format span log
// when the coordinator asks for the per-layer metrics.
func Serve(in io.Reader, out io.Writer, name string, seed int64, root, spanFile string) error {
	if n := Procs(name); n > 0 {
		runtime.GOMAXPROCS(n)
	}
	w, err := NewWorkload(name, seed, 1, root)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	cold := report(w.Cold())
	if err := enc.Encode(Reply{Op: cold, MaxRSSMB: MaxRSSMiB()}); err != nil {
		return err
	}
	var (
		sp              *Spans
		rec             *PhaseRecorder
		untraced, trace []Op
	)
	sc := bufio.NewScanner(in)
	for id := 1; sc.Scan(); id++ {
		var r Reply
		switch sc.Text() {
		case cmdOp:
			op := w.Op(nil, nil, id)
			untraced = append(untraced, op)
			r.Op = report(op)
		case cmdTraced:
			if sp == nil {
				sp, rec = NewSpans(), NewPhaseRecorder(200_000)
			}
			op := w.Op(sp, rec, id)
			trace = append(trace, op)
			r.Op = report(op)
		case cmdLayers:
			if len(untraced) == 0 || len(trace) == 0 {
				return fmt.Errorf("layers needs untraced and traced operations first")
			}
			r.Layers = w.Layers(sp, rec, untraced, trace)
			if err := writeSpans(spanFile, sp, name); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown worker command %q", sc.Text())
		}
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return sc.Err()
}

func writeSpans(path string, sp *Spans, process string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sp.WriteChrome(f, process); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
