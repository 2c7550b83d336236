package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
)

// OutDir holds span files and default result files, relative to the
// repository root.
const OutDir = "bench/out"

// FindRoot returns the repository root: the working directory or its
// parent, whichever holds both the suite's golden file and this
// benchmark.
func FindRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if isFile(filepath.Join(dir, GoldenPath)) && isFile(filepath.Join(dir, "bench", "go.mod")) {
			return dir, nil
		}
	}
	return "", errors.New("run from the repository root: no " + GoldenPath + " beside bench/")
}

func isFile(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.Mode().IsRegular()
}

// WriteResult writes r as indented JSON to path.
func WriteResult(path string, r *Result) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadResult reads a result file.
func ReadResult(path string) (*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// Print writes the result as a table, one column per workload: every
// metric by name with its unit, the median op and the timed op count
// beside op_min_s, and the failed fraction of attempted ops.
func Print(w io.Writer, r *Result) {
	h := r.Host
	fmt.Fprintf(w, "seed %d, %d rounds; %d CPUs (GOMAXPROCS %d) %s; %s; %s\n",
		r.Seed, r.Rounds, h.NProc, h.GOMAXPROCS, h.CPUModel, h.GoVersion, h.GitDescribe)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	row := func(cells ...string) { fmt.Fprintln(tw, strings.Join(cells, "\t")+"\t") }
	head := []string{"metric", "unit"}
	for _, wr := range r.Workloads {
		head = append(head, wr.Name)
	}
	row(head...)
	defs := EndToEnd
	if r.Trace {
		defs = PerLayer
	}
	for _, d := range defs {
		cells := []string{d.Name, d.Unit}
		for _, wr := range r.Workloads {
			c := fmt.Sprintf("%.4g", wr.Metrics[d.Name].Value)
			if d.Name == "op_min_s" {
				c += fmt.Sprintf(" (p50 %.4g, n=%d)", wr.OpP50, wr.TimedOps)
			}
			cells = append(cells, c)
		}
		row(cells...)
	}
	cells := []string{"fail_frac", "ratio"}
	for _, wr := range r.Workloads {
		cells = append(cells, fmt.Sprintf("%.4g (%d/%d)", wr.FailFrac, wr.Failed, wr.Attempted))
	}
	row(cells...)
	tw.Flush()
	for _, wr := range r.Workloads {
		for _, e := range wr.Errors {
			fmt.Fprintf(w, "%s: FAILED: %s\n", wr.Name, e)
		}
	}
}

// Summary is the one-line JSON object the benchmark prints last.
type Summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Summarize totals the failure counts; with several workloads each
// metric name is prefixed by its workload's.
func Summarize(r *Result) Summary {
	s := Summary{Metrics: map[string]Metric{}}
	for _, wr := range r.Workloads {
		s.Attempted += wr.Attempted
		s.Failed += wr.Failed
		for name, m := range wr.Metrics {
			if len(r.Workloads) > 1 {
				name = wr.Name + "." + name
			}
			s.Metrics[name] = m
		}
	}
	s.Correct = s.Failed == 0
	return s
}
