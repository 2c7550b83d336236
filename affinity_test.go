package affinity_test

import (
	"strings"
	"testing"

	"affinity"
)

func TestPublicQuickstart(t *testing.T) {
	res := affinity.Run(affinity.Params{
		Paradigm:        affinity.Locking,
		Policy:          affinity.MRU,
		Streams:         8,
		Arrival:         affinity.Poisson{PacketsPerSec: 1000},
		Seed:            1,
		MeasuredPackets: 2000,
	})
	if res.Completed != 2000 {
		t.Fatalf("Completed = %d", res.Completed)
	}
	if res.MeanDelay <= 0 {
		t.Fatal("no delay measured")
	}
}

func TestPublicModel(t *testing.T) {
	m := affinity.NewModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.ExecTime(0) != affinity.PaperCalibration().TWarm {
		t.Fatal("warm exec time mismatch")
	}
	if affinity.SGIChallengeXL().Processors != 8 {
		t.Fatal("platform mismatch")
	}
	if m.Workload.B == 0 {
		t.Fatal("workload constants missing")
	}
}

func TestPublicCalibrate(t *testing.T) {
	r := affinity.Calibrate(affinity.SGIChallengeXL())
	if r.Normalized.TCold != 284.3 {
		t.Fatalf("calibration anchor = %v", r.Normalized.TCold)
	}
}

func TestPublicBackgrounds(t *testing.T) {
	if affinity.BackgroundWithIntensity(1).Intensity != 1 {
		t.Fatal("loaded background intensity")
	}
	if affinity.BackgroundWithIntensity(0).Intensity != 0 {
		t.Fatal("idle background intensity")
	}
}

func TestPublicExperimentRegistry(t *testing.T) {
	if e, ok := affinity.ExperimentByID("e5"); !ok || e.ID != "E5" || e.Run == nil {
		t.Fatalf("case-insensitive lookup = %+v, %v", e, ok)
	}
	if _, ok := affinity.ExperimentByID("E99"); ok {
		t.Fatal("unknown ID resolved")
	}
}

func TestPublicExperimentOutput(t *testing.T) {
	e, _ := affinity.ExperimentByID("T1")
	tbl := e.Run(affinity.ExperimentConfig{Quick: true, Seed: 1})
	out := tbl.String()
	if !strings.Contains(out, "284.3") {
		t.Fatalf("T1 output missing the paper's t_cold anchor:\n%s", out)
	}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Columns) {
			t.Fatalf("ragged row %v vs columns %v", row, tbl.Columns)
		}
	}
}

func TestPublicPolicyParadigmPairs(t *testing.T) {
	if !affinity.MRU.ForLocking() || affinity.MRU.ForIPS() {
		t.Fatal("MRU paradigm flags")
	}
	if !affinity.IPSRandom.ForIPS() {
		t.Fatal("IPSRandom paradigm flags")
	}
	if !affinity.RSS.ForLocking() || affinity.RSS.ForIPS() {
		t.Fatal("RSS paradigm flags")
	}
	if !affinity.FlowDirector.ForLocking() || affinity.FlowDirector.ForIPS() {
		t.Fatal("FlowDirector paradigm flags")
	}
}

func TestPublicTopology(t *testing.T) {
	tp, err := affinity.ParseTopology("2x4:1,2")
	if err != nil {
		t.Fatal(err)
	}
	if tp.Processors() != 8 || tp.CrossSocketTransient != 2 {
		t.Fatalf("ParseTopology = %+v", tp)
	}
	if _, err := affinity.ParseTopology("2x4:2,1"); err == nil {
		t.Fatal("inverted multipliers accepted")
	}
	flat, err := affinity.ParseTopology("1x4")
	if err != nil || flat.Sockets != 1 || flat.CoresPerSocket != 4 {
		t.Fatalf("ParseTopology(\"1x4\") = %+v, %v", flat, err)
	}
}
