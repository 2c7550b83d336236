package main

import (
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"affinity/internal/sim"
)

// End-to-end CLI tests: build the real binary once, run it with the
// flag combinations the README documents, and golden-check the output.
// DES runs are deterministic given a seed, so text and JSON output are
// byte-stable; the live backend's output is checked structurally
// (parseable JSON, conserved ledger) instead.

var updateGolden = flag.Bool("update", false, "rewrite the CLI golden files")

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

// binary builds the affinitysim executable once per test run.
func binary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "affinitysim-e2e")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "affinitysim")
		out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput()
		if err != nil {
			buildErr = err
			binPath = string(out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building affinitysim: %v\n%s", buildErr, binPath)
	}
	return binPath
}

// run executes the binary and returns stdout, stderr and the exit code.
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

// checkGolden compares got against the named golden file (regenerate
// with -update).
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

func TestCLITextOutput(t *testing.T) {
	stdout, stderr, code := run(t,
		"-paradigm", "locking", "-policy", "mru",
		"-rate", "1000", "-packets", "2000", "-seed", "1")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	checkGolden(t, "cli_text.golden", stdout)
}

func TestCLIJSONOutput(t *testing.T) {
	stdout, stderr, code := run(t, "-json",
		"-paradigm", "ips", "-policy", "wired", "-streams", "8", "-stacks", "4",
		"-rate", "1000", "-packets", "2000", "-seed", "1")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	var res sim.Results
	if err := json.Unmarshal([]byte(stdout), &res); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	checkGolden(t, "cli_json.golden", stdout)
}

func TestCLIFaultsAndQueueBound(t *testing.T) {
	stdout, stderr, code := run(t,
		"-paradigm", "locking", "-policy", "mru",
		"-faults", "down:0@250ms,up:0@400ms,loss:0.05@220ms",
		"-maxqueue", "16",
		"-rate", "1000", "-packets", "2000", "-seed", "1")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "dropped") {
		t.Error("output lacks a dropped-packets line despite injected loss")
	}
	if !strings.Contains(stdout, "down") {
		t.Error("output lacks a per-processor down-time line despite an outage")
	}
	checkGolden(t, "cli_faults.golden", stdout)
}

// TestCLILiveBackend runs the goroutine backend through the CLI. The
// numbers are not byte-stable, so the check is structural: valid JSON
// reporting the right configuration, with a conserved packet ledger.
func TestCLILiveBackend(t *testing.T) {
	stdout, stderr, code := run(t, "-backend", "live", "-json",
		"-paradigm", "locking", "-policy", "mru",
		"-rate", "1000", "-packets", "2000", "-seed", "1")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	var res sim.Results
	if err := json.Unmarshal([]byte(stdout), &res); err != nil {
		t.Fatalf("live output is not valid JSON: %v", err)
	}
	if res.Paradigm != "Locking" || res.Policy != "MRU" {
		t.Errorf("live run reported %s/%s, want Locking/MRU", res.Paradigm, res.Policy)
	}
	if res.CompletedTotal == 0 {
		t.Error("live run completed no packets")
	}
	if err := sim.CheckInvariants(res); err != nil {
		t.Error(err)
	}
}

// TestCLIWorkloadSpec runs a committed workload spec through the CLI:
// the spec defines the stream count (8) and per-stream rates, and the
// deterministic DES output is golden-checked.
func TestCLIWorkloadSpec(t *testing.T) {
	stdout, stderr, code := run(t,
		"-spec", filepath.Join("testdata", "workload.json"),
		"-packets", "800", "-seed", "7")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	checkGolden(t, "cli_spec.golden", stdout)
}

// TestCLIReplayGoldenTrace replays the committed trace fixture (itself
// recorded from testdata/workload.json) and golden-checks the output:
// together with TestCLIWorkloadSpec's golden this pins that a recorded
// run and its replay produce byte-identical results, and that the
// on-disk trace format stays readable.
func TestCLIReplayGoldenTrace(t *testing.T) {
	stdout, stderr, code := run(t,
		"-replay", filepath.Join("testdata", "replay_small.trace"),
		"-packets", "800", "-seed", "7")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	// The replayed run must reproduce the recorded run exactly, so the
	// two tests share one golden file.
	checkGolden(t, "cli_spec.golden", stdout)
}

// TestCLIRecordReplayBitIdentical is the end-to-end trip on both
// backends: record a spec-driven run to a fresh trace, replay it, and
// require byte-identical JSON results. The fixture spec is continuous
// (Poisson, some ON/OFF-modulated) on purpose — live runs with batch
// arrivals race workers at burst instants and are statistically, not
// bitwise, reproducible (see internal/live).
func TestCLIRecordReplayBitIdentical(t *testing.T) {
	for _, backend := range []string{"des", "live"} {
		trace := filepath.Join(t.TempDir(), "run.trace")
		rec, stderr, code := run(t, "-backend", backend, "-json",
			"-spec", filepath.Join("testdata", "workload.json"),
			"-record", trace, "-packets", "800", "-seed", "7")
		if code != 0 {
			t.Fatalf("backend %s record: exit %d, stderr: %s", backend, code, stderr)
		}
		if _, err := os.Stat(trace); err != nil {
			t.Fatalf("backend %s: no trace written: %v", backend, err)
		}
		rep, stderr, code := run(t, "-backend", backend, "-json",
			"-replay", trace, "-packets", "800", "-seed", "7")
		if code != 0 {
			t.Fatalf("backend %s replay: exit %d, stderr: %s", backend, code, stderr)
		}
		if rec != rep {
			t.Errorf("backend %s: replayed results differ from the recorded run\nrecorded:\n%s\nreplayed:\n%s",
				backend, rec, rep)
		}
	}
}

func TestCLIBadFlagsExitOne(t *testing.T) {
	badSpec := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(badSpec, []byte(`{"classes":[{"name":"a","model":"warp","streams":1,"rate_pps":10}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	badTrace := filepath.Join(t.TempDir(), "bad.trace")
	if err := os.WriteFile(badTrace, []byte("not a trace\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	goodSpec := filepath.Join("testdata", "workload.json")
	goodTrace := filepath.Join("testdata", "replay_small.trace")
	cases := [][]string{
		{"-policy", "nonsense"},
		{"-paradigm", "nonsense"},
		{"-backend", "nonsense"},
		{"-faults", "down:99@1s"}, // processor out of range
		{"-paradigm", "ips", "-policy", "pools"},
		{"-burst", "0.5"}, // sub-1 burst must not silently mean Poisson
		{"-burst", "-1"},
		{"-train", "0.5"},
		{"-train", "100", "-rate", "20000"}, // infeasible inter-train gap
		{"-intensity", "1.5"},
		{"-intensity", "-0.1"},
		{"-spec", "/nonexistent/spec.json"},
		{"-spec", badSpec},
		{"-replay", badTrace},
		{"-spec", goodSpec, "-replay", goodTrace}, // mutually exclusive
		{"-record", "x.trace", "-replay", goodTrace},
		{"-spec", goodSpec, "-streams", "3"}, // conflicts with spec's 8
		{"-topology", "nonsense"},
		{"-topology", "0x4"},
		{"-topology", "2x"},
		{"-topology", "2x4:2,1"},                 // cross-socket cheaper than same-socket
		{"-topology", "2x4:0.5,2"},               // same-socket below 1
		{"-topology", "2x4", "-processors", "6"}, // shape disagrees with count
		{"-topology", "2x4:1,NaN"},               // NaN passes every range comparison
		{"-topology", "2x4:NaN,2"},
		{"-faults", "slow:2xNaN@0s"},
		{"-faults", "slow:2xInf@0s"}, // infinite service times
		{"-faults", "loss:NaN@0s"},
		{"-paradigm", "ips", "-policy", "rss"}, // hash dispatch is Locking-only
		{"-paradigm", "ips", "-policy", "flowdir"},
	}
	for _, args := range cases {
		_, stderr, code := run(t, args...)
		if code != 1 {
			t.Errorf("%v: exit %d, want 1", args, code)
		}
		if !strings.HasPrefix(stderr, "affinitysim:") {
			t.Errorf("%v: stderr %q lacks the affinitysim: prefix", args, stderr)
		}
	}
}

// TestCLIFlatTopologyMatchesGolden pins the topology no-op contract end
// to end: an explicit single-socket shape must reproduce the
// topology-free sequential golden byte for byte.
func TestCLIFlatTopologyMatchesGolden(t *testing.T) {
	stdout, stderr, code := run(t,
		"-paradigm", "locking", "-policy", "mru",
		"-rate", "1000", "-packets", "2000", "-seed", "1",
		"-topology", "1x8")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	checkGolden(t, "cli_text.golden", stdout)
}

// TestCLIHashPolicies exercises the new -policy values end to end: RSS
// on a NUMA shape completes with zero reordering; Flow Director under
// bursty load reports the in-flight reordering its rebalancing causes.
func TestCLIHashPolicies(t *testing.T) {
	stdout, stderr, code := run(t,
		"-policy", "rss", "-topology", "2x4", "-streams", "16",
		"-rate", "800", "-packets", "2000", "-seed", "1")
	if code != 0 {
		t.Fatalf("rss: exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "policy          RSS") {
		t.Errorf("rss output lacks the policy line:\n%s", stdout)
	}
	if !strings.Contains(stdout, "reordered       0 completions") {
		t.Errorf("rss reordered packets — static homes cannot reorder:\n%s", stdout)
	}

	stdout, stderr, code = run(t, "-json",
		"-policy", "flowdir", "-topology", "2x4:1,1.8",
		"-rate", "2500", "-burst", "16", "-packets", "2000", "-seed", "1")
	if code != 0 {
		t.Fatalf("flowdir: exit %d, stderr: %s", code, stderr)
	}
	var res sim.Results
	if err := json.Unmarshal([]byte(stdout), &res); err != nil {
		t.Fatalf("flowdir JSON: %v", err)
	}
	if res.Policy != "FlowDirector" {
		t.Errorf("policy = %q, want FlowDirector", res.Policy)
	}
	if res.ReorderedTotal == 0 {
		t.Error("flowdir reported no reordering on bursty load — rebalancing never fired")
	}
	if err := sim.CheckInvariants(res); err != nil {
		t.Error(err)
	}
}

// TestCLISaturationExitTwo pins the documented exit-code contract:
// saturated runs print results but exit 2, on both backends.
func TestCLISaturationExitTwo(t *testing.T) {
	for _, backend := range []string{"des", "live"} {
		stdout, stderr, code := run(t, "-backend", backend,
			"-paradigm", "locking", "-policy", "fcfs",
			"-rate", "6000", "-packets", "2000", "-seed", "1")
		if code != 2 {
			t.Errorf("backend %s: exit %d under overload, want 2 (stderr: %s)",
				backend, code, stderr)
		}
		if !strings.Contains(stdout, "SATURATED") {
			t.Errorf("backend %s: output lacks the SATURATED banner", backend)
		}
	}
}
