package sim

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"affinity/internal/des"
	"affinity/internal/faults"
	"affinity/internal/obs"
	"affinity/internal/sched"
	"affinity/internal/traffic"
)

var updateObsGolden = flag.Bool("update", false, "rewrite the obs golden fixtures")

// obsFaultParams is the pinned fault-plan scenario the fixtures record:
// a down/up window on processor 0, injected loss from t=0, and a bounded
// queue so both drop reasons (loss and queue) appear in the stream.
func obsFaultParams() Params {
	p := quick(Locking, sched.MRU)
	p.Processors = 2
	p.Streams = 2
	p.Arrival = traffic.Poisson{PacketsPerSec: 500}
	p.MeasuredPackets = 100
	p.Warmup = des.Millisecond
	p.MaxQueueDepth = 1
	p.Faults = (&faults.Plan{}).
		Down(20*des.Millisecond, 0).
		Up(40*des.Millisecond, 0).
		WithLoss(0, 0.05)
	return p
}

// checkObsGolden compares got with testdata/name. The fixtures print
// times with 17 significant digits, so they hold on every target only
// because the cost model's Exp and Log are internal/xmath's, which
// compute the same bits everywhere.
func checkObsGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateObsGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -run TestObsGoldenFaultRun -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output differs from golden (regenerate with -update if the change is intended)", name)
	}
}

// TestObsGoldenFaultRun pins the full observability surface of a faulted
// DES run byte-for-byte: the event CSV (with readable drop reasons), the
// Chrome trace, and the decision ledger CSV. Any change to event
// ordering, schema, or decision costing shows up as a fixture diff.
func TestObsGoldenFaultRun(t *testing.T) {
	var events, trace, decisions bytes.Buffer
	csv := obs.NewCSV(&events)
	chrome := obs.NewChromeTrace(&trace)
	dcsv := obs.NewDecisionCSV(&decisions)

	p := obsFaultParams()
	p.Recorder = obs.Multi(csv, chrome)
	p.DecisionRecorder = dcsv
	res := Run(p)
	for _, c := range []interface{ Close() error }{csv, chrome, dcsv} {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}

	if res.Dropped == 0 || res.PerProcDownTime[0] == 0 {
		t.Fatalf("scenario too tame to pin: %d drops, %v down time",
			res.Dropped, res.PerProcDownTime[0])
	}
	if !strings.Contains(events.String(), ",queue\n") ||
		!strings.Contains(events.String(), ",loss\n") {
		t.Fatal("event CSV misses a drop reason — both must appear in the fixture")
	}
	if n := uint64(strings.Count(decisions.String(), "\n") - 1); n != res.DecisionsRecorded {
		t.Fatalf("decision CSV has %d rows, results counted %d", n, res.DecisionsRecorded)
	}

	checkObsGolden(t, "obs_faults_events.golden.csv", events.Bytes())
	checkObsGolden(t, "obs_faults_trace.golden.json", trace.Bytes())
	checkObsGolden(t, "obs_faults_decisions.golden.csv", decisions.Bytes())
}
