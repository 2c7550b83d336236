package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"affinity"
)

// End-to-end CLI tests for schedsearch: build the real binary once and
// drive it the way the README documents. The search is deterministic
// at any -parallel width, so stdout can be compared byte for byte.

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

func binary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "schedsearch-e2e")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "schedsearch")
		out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput()
		if err != nil {
			buildErr = err
			binPath = string(out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building schedsearch: %v\n%s", buildErr, binPath)
	}
	return binPath
}

func run(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(binary(t), args...)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if exitErr, ok := err.(*exec.ExitError); ok {
		code = exitErr.ExitCode()
	} else if err != nil {
		t.Fatalf("running %v: %v", args, err)
	}
	return stdout.String(), stderr.String(), code
}

// quickArgs is a small search (2×2×2 grid) that still exercises the
// descent and the full text report.
func quickArgs(extra ...string) []string {
	return append([]string{
		"-streams", "8", "-rate", "1500", "-burst", "4",
		"-packets", "1500", "-seed", "3",
		"-penalties", "0,25", "-depths", "0,2", "-biases", "0,1",
		"-grid",
	}, extra...)
}

// TestSearchCLIDeterministicAcrossParallel pins the property the CI
// diff step rests on: the report is byte-identical at any pool width.
func TestSearchCLIDeterministicAcrossParallel(t *testing.T) {
	a, stderr, code := run(t, quickArgs("-parallel", "1")...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	b, stderr, code := run(t, quickArgs("-parallel", "8")...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if a != b {
		t.Errorf("-parallel 1 and -parallel 8 reports differ:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "best            steal:") {
		t.Errorf("report never names a winner:\n%s", a)
	}
}

// TestSearchCLIJSONReport: the JSON form round-trips into the facade's
// SearchReport with the full grid and a winner drawn from it.
func TestSearchCLIJSONReport(t *testing.T) {
	stdout, stderr, code := run(t, quickArgs("-json")...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	var rep affinity.SearchReport
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("output is not a SearchReport: %v", err)
	}
	if len(rep.Grid) != 8 {
		t.Errorf("grid has %d points, want 2×2×2 = 8", len(rep.Grid))
	}
	if rep.Evaluated < len(rep.Grid) {
		t.Errorf("Evaluated %d < grid size %d", rep.Evaluated, len(rep.Grid))
	}
	for _, c := range rep.Grid {
		if c.Fitness < rep.Best.Fitness {
			t.Errorf("grid point %+v fitter than the reported winner", c.Steal)
		}
	}
}

// TestSearchCLICounterfactuals: -counterfactuals replays the winner's
// top-regret decisions and reports predicted vs realized gains.
func TestSearchCLICounterfactuals(t *testing.T) {
	stdout, stderr, code := run(t, quickArgs("-counterfactuals", "3")...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "top-3 counterfactuals") {
		t.Errorf("missing counterfactual section:\n%s", stdout)
	}
	if !strings.Contains(stdout, "predicted gain") &&
		!strings.Contains(stdout, "no positive-regret decisions") {
		t.Errorf("counterfactual section has neither rows nor the empty-case line:\n%s", stdout)
	}
}

// TestSearchCLIBadFlagsExitOne: malformed axes, out-of-domain values
// and unreadable specs exit 1 with the schedsearch: prefix.
func TestSearchCLIBadFlagsExitOne(t *testing.T) {
	cases := [][]string{
		{"-penalties", "0,x"},
		{"-penalties", "-5"},
		{"-depths", "0,1.5"},
		{"-depths", "-1"},
		{"-biases", "0,2"},
		{"-biases", "-0.5"},
		{"-biases", "inf"}, // inf is a penalty spelling, never a bias
		{"-spec", "/nonexistent/spec.json"},
		{"-rate", "-100"},
		{"-parallel", "-1"},
		{"-packets", "-5"}, // one-packet runs would pick the "best" configuration
	}
	for _, args := range cases {
		// The case's own flags come last, so its -packets wins.
		_, stderr, code := run(t, append([]string{"-packets", "200"}, args...)...)
		if code != 1 {
			t.Errorf("%v: exit %d, want 1", args, code)
		}
		if !strings.HasPrefix(stderr, "schedsearch:") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("%v: stderr %q is not one schedsearch: line", args, stderr)
		}
	}
}
