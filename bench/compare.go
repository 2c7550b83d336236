package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// Bound is an end-to-end metric's entry in BENCHMARK.json: the share of
// the baseline's value by which it may worsen before a change counts as
// a regression.
type Bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Manifest is the part of BENCHMARK.json the benchmark reads.
type Manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []Bound `json:"end_to_end"`
	PerLayer []Def   `json:"per_layer"`
}

// ReadManifest reads BENCHMARK.json.
func ReadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// Compare prints one row per workload × end-to-end metric of candidate
// b against baseline a and reports whether every metric stayed within
// its bound. A rise in the failed fraction is always out of bounds. It
// fails on results that do not measure the same thing: traced runs, or
// different seeds, run lengths or workloads.
func Compare(w io.Writer, a, b *Result, bounds []Bound) (bool, error) {
	switch {
	case a.Trace || b.Trace:
		return false, fmt.Errorf("compare takes untraced run results")
	case a.Seed != b.Seed:
		return false, fmt.Errorf("seeds differ: %d vs %d", a.Seed, b.Seed)
	case a.Seconds != b.Seconds || a.Seconds == 0 && a.Rounds != b.Rounds:
		return false, fmt.Errorf("run lengths differ: %s vs %s", a.length(), b.length())
	case !slices.Equal(a.names(), b.names()):
		return false, fmt.Errorf("workloads differ: %v vs %v", a.names(), b.names())
	}
	if a.Host.CPUModel != b.Host.CPUModel || a.Host.NProc != b.Host.NProc || a.Host.GOMAXPROCS != b.Host.GOMAXPROCS {
		fmt.Fprintf(w, "warning: different hosts (%d× %s vs %d× %s)\n",
			a.Host.NProc, a.Host.CPUModel, b.Host.NProc, b.Host.CPUModel)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbaseline\tcandidate\tworse by\tbound\tverdict")
	ok := true
	for i, wb := range b.Workloads {
		wa := a.Workloads[i]
		for _, bd := range bounds {
			va, vb := wa.Metrics[bd.Name].Value, wb.Metrics[bd.Name].Value
			worse := (vb - va) / va
			if bd.Better == "higher" {
				worse = (va - vb) / va
			}
			verdict := "ok"
			if !(worse <= bd.Bound) {
				verdict, ok = "OUT", false
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%s\n",
				wb.Name, bd.Name, bd.Unit, va, vb, 100*worse, 100*bd.Bound, verdict)
		}
		verdict := "ok"
		if wb.FailFrac > wa.FailFrac {
			verdict, ok = "OUT", false
		}
		fmt.Fprintf(tw, "%s\tfail_frac\tratio\t%.6g\t%.6g\t\tany rise\t%s\n",
			wb.Name, wa.FailFrac, wb.FailFrac, verdict)
	}
	tw.Flush()
	return ok, nil
}

func (r *Result) names() []string {
	var names []string
	for _, wr := range r.Workloads {
		names = append(names, wr.Name)
	}
	return names
}

func (r *Result) length() string {
	if r.Seconds > 0 {
		return fmt.Sprintf("%gs of ops", r.Seconds)
	}
	return fmt.Sprintf("%d rounds", r.Rounds)
}
