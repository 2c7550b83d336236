package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"affinity/internal/obs"
	"affinity/internal/sim"
)

var (
	schedtraceOnce sync.Once
	schedtracePath string
	schedtraceErr  error
)

// schedtraceBinary builds the schedtrace example once per test run, so
// the ledger analysis below exercises the real tool, not a reimplementation.
func schedtraceBinary(t *testing.T) string {
	t.Helper()
	schedtraceOnce.Do(func() {
		dir, err := os.MkdirTemp("", "schedtrace-e2e")
		if err != nil {
			schedtraceErr = err
			return
		}
		schedtracePath = filepath.Join(dir, "schedtrace")
		out, err := exec.Command("go", "build", "-o", schedtracePath, "../../examples/schedtrace").CombinedOutput()
		if err != nil {
			schedtraceErr = err
			schedtracePath = string(out)
		}
	})
	if schedtraceErr != nil {
		t.Fatalf("building schedtrace: %v\n%s", schedtraceErr, schedtracePath)
	}
	return schedtracePath
}

// TestCLIDecisionLedgerBothBackends is the end-to-end decision-count
// agreement check: on each backend, the ledger CSV's row count, the
// run's own Results.DecisionsRecorded, and the total the schedtrace
// regret report computes from the file must all agree.
func TestCLIDecisionLedgerBothBackends(t *testing.T) {
	for _, backend := range []string{"des", "live"} {
		t.Run(backend, func(t *testing.T) {
			ledger := filepath.Join(t.TempDir(), "ledger.csv")
			stdout, stderr, code := run(t, "-backend", backend, "-json",
				"-paradigm", "locking", "-policy", "mru",
				"-rate", "1000", "-packets", "1000", "-seed", "1",
				"-decisions", ledger)
			if code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, stderr)
			}
			var res sim.Results
			if err := json.Unmarshal([]byte(stdout), &res); err != nil {
				t.Fatalf("output is not valid JSON: %v", err)
			}
			if res.DecisionsRecorded == 0 {
				t.Fatal("run recorded no decisions")
			}

			f, err := os.Open(ledger)
			if err != nil {
				t.Fatal(err)
			}
			ds, err := obs.ReadDecisionCSV(f)
			f.Close()
			if err != nil {
				t.Fatalf("ledger unreadable: %v", err)
			}
			if uint64(len(ds)) != res.DecisionsRecorded {
				t.Errorf("ledger has %d rows, results counted %d", len(ds), res.DecisionsRecorded)
			}

			out, err := exec.Command(schedtraceBinary(t), "-decisions", ledger).CombinedOutput()
			if err != nil {
				t.Fatalf("schedtrace -decisions: %v\n%s", err, out)
			}
			// First line: "decision ledger: N decisions, ...".
			first := strings.SplitN(string(out), "\n", 2)[0]
			fields := strings.Fields(first)
			if len(fields) < 3 {
				t.Fatalf("unexpected schedtrace report header %q", first)
			}
			n, err := strconv.ParseUint(fields[2], 10, 64)
			if err != nil {
				t.Fatalf("parsing decision count from %q: %v", first, err)
			}
			if n != res.DecisionsRecorded {
				t.Errorf("schedtrace counted %d decisions, results counted %d", n, res.DecisionsRecorded)
			}
		})
	}
}

// TestSchedtraceGolden pins examples/schedtrace's output byte for byte:
// its default demo (a DES run, seed 7), and its regret report over the
// decision ledger of a fixed affinitysim run. Running the examples
// elsewhere checks only that they exit 0. Regenerate with -update.
func TestSchedtraceGolden(t *testing.T) {
	demo, err := exec.Command(schedtraceBinary(t)).Output()
	if err != nil {
		t.Fatalf("schedtrace: %v", err)
	}
	checkGolden(t, "schedtrace_demo.golden", string(demo))

	ledger := filepath.Join(t.TempDir(), "ledger.csv")
	if _, stderr, code := run(t, "-paradigm", "locking", "-policy", "mru",
		"-rate", "1000", "-packets", "1000", "-seed", "1",
		"-decisions", ledger); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	report, err := exec.Command(schedtraceBinary(t), "-decisions", ledger).Output()
	if err != nil {
		t.Fatalf("schedtrace -decisions: %v", err)
	}
	checkGolden(t, "schedtrace_decisions.golden", string(report))
}

// TestCLIObsFlagsDoNotChangeOutput pins the observation-only contract at
// the CLI boundary: the text report is byte-identical with and without
// every new observability flag.
func TestCLIObsFlagsDoNotChangeOutput(t *testing.T) {
	base := []string{"-paradigm", "locking", "-policy", "mru",
		"-rate", "1000", "-packets", "1000", "-seed", "1"}
	plain, stderr, code := run(t, base...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	dir := t.TempDir()
	flagged, stderr, code := run(t, append([]string{
		"-decisions", filepath.Join(dir, "d.csv"),
		"-timeseries", filepath.Join(dir, "ts.csv"),
		"-metrics", filepath.Join(dir, "m.prom"),
	}, base...)...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if plain != flagged {
		t.Errorf("observability flags changed the report:\n plain:\n%s\n flagged:\n%s", plain, flagged)
	}
	for _, name := range []string{"d.csv", "ts.csv", "m.prom"} {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil || st.Size() == 0 {
			t.Errorf("%s: missing or empty (%v)", name, err)
		}
	}
}

// TestCLITimeSeriesAndMetricsFormats checks the format selection: a
// .json metrics file is valid JSON, anything else is Prometheus text,
// and the time-series CSV starts with the documented header.
func TestCLITimeSeriesAndMetricsFormats(t *testing.T) {
	dir := t.TempDir()
	tsPath := filepath.Join(dir, "ts.csv")
	promPath := filepath.Join(dir, "m.prom")
	jsonPath := filepath.Join(dir, "m.json")
	jsonlPath := filepath.Join(dir, "d.jsonl")
	_, stderr, code := run(t,
		"-paradigm", "locking", "-policy", "mru",
		"-rate", "1000", "-packets", "1000", "-seed", "1",
		"-timeseries", tsPath, "-tsinterval", "5000",
		"-metrics", promPath, "-decisions", jsonlPath)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	_, stderr, code = run(t,
		"-paradigm", "locking", "-policy", "mru",
		"-rate", "1000", "-packets", "1000", "-seed", "1",
		"-metrics", jsonPath)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}

	ts, err := os.ReadFile(tsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(ts), "t0_us,arrivals,dispatches,completions,drops,reordered,warm_frac,") {
		t.Errorf("time-series header unexpected: %q", strings.SplitN(string(ts), "\n", 2)[0])
	}
	prom, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), "affinity_events_total{") {
		t.Error("prometheus output lacks affinity_events_total series")
	}
	mj, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(mj, &snap); err != nil {
		t.Errorf("metrics .json is not valid JSON: %v", err)
	}
	jl, err := os.ReadFile(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	firstLine := strings.SplitN(string(jl), "\n", 2)[0]
	var d map[string]any
	if err := json.Unmarshal([]byte(firstLine), &d); err != nil {
		t.Errorf(".jsonl ledger first line is not valid JSON: %v", err)
	}
}
