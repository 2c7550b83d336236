package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func mkDecision(seq uint64, stream, chosen, preferred int, costs ...float64) Decision {
	d := Decision{
		T: float64(seq) * 10, Point: PointPlace, Seq: seq,
		Stream: stream, Entity: stream, Chosen: chosen, Preferred: preferred,
	}
	best := 0.0
	for i, c := range costs {
		d.Candidates = append(d.Candidates, Candidate{Proc: i, Warm: c < 300, XRefs: c, Cost: c})
		if i == 0 || c < best {
			best = c
		}
		if i == chosen {
			d.ChosenCost = c
		}
	}
	d.BestCost = best
	return d
}

func TestDecisionPointStrings(t *testing.T) {
	for p := DecisionPoint(0); p < numPoints; p++ {
		s := p.String()
		if s == "" || strings.HasPrefix(s, "DecisionPoint(") {
			t.Fatalf("point %d has no name", p)
		}
		back, ok := ParseDecisionPoint(s)
		if !ok || back != p {
			t.Fatalf("ParseDecisionPoint(%q) = %v,%v", s, back, ok)
		}
	}
	if DecisionPoint(9).String() != "DecisionPoint(9)" {
		t.Fatal("unknown point must fall back to DecisionPoint(n)")
	}
	if _, ok := ParseDecisionPoint("bogus"); ok {
		t.Fatal("ParseDecisionPoint accepted garbage")
	}
}

func TestDecisionMulti(t *testing.T) {
	if DecisionMulti() != nil || DecisionMulti(nil, nil) != nil {
		t.Fatal("DecisionMulti of nothing must be nil")
	}
	a, b := NewLedgerRecorder(), NewLedgerRecorder()
	if DecisionMulti(nil, a) != DecisionRecorder(a) {
		t.Fatal("DecisionMulti of one must be that recorder")
	}
	tee := DecisionMulti(a, nil, b)
	tee.RecordDecision(mkDecision(1, 0, 0, -1, 100))
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatal("tee did not fan out")
	}
}

func TestDecisionRegret(t *testing.T) {
	d := mkDecision(1, 0, 2, 0, 100, 200, 350)
	if d.Regret() != 250 {
		t.Fatalf("regret=%g, want 250", d.Regret())
	}
	if mkDecision(1, 0, 0, 0, 100, 200).Regret() != 0 {
		t.Fatal("choosing the cheapest candidate must have zero regret")
	}
}

func TestDecisionCSVRoundTrip(t *testing.T) {
	want := []Decision{
		mkDecision(1, 0, 1, -1, 300.5, 250.25),
		mkDecision(2, 1, 0, 0, 284),
		{T: 55, Point: PointSpill, Seq: 3, Stream: 2, Entity: 2,
			Chosen: 1, Preferred: 0, ChosenCost: 500, BestCost: 400,
			Candidates: []Candidate{{Proc: 0, Warm: true, Cost: 400}, {Proc: 1, Cost: 500}}},
	}
	var buf bytes.Buffer
	c := NewDecisionCSV(&buf)
	for _, d := range want {
		c.RecordDecision(d)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDecisionCSV(&buf)
	if err != nil {
		t.Fatalf("ReadDecisionCSV: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("rows=%d, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.T != w.T || g.Point != w.Point || g.Seq != w.Seq ||
			g.Stream != w.Stream || g.Entity != w.Entity ||
			g.Chosen != w.Chosen || g.Preferred != w.Preferred ||
			g.ChosenCost != w.ChosenCost || g.BestCost != w.BestCost {
			t.Fatalf("row %d: got %+v, want %+v", i, g, w)
		}
		if len(g.Candidates) != len(w.Candidates) {
			t.Fatalf("row %d: candidates=%d, want %d", i, len(g.Candidates), len(w.Candidates))
		}
		for j := range w.Candidates {
			if g.Candidates[j].Proc != w.Candidates[j].Proc ||
				g.Candidates[j].Warm != w.Candidates[j].Warm ||
				g.Candidates[j].Cost != w.Candidates[j].Cost {
				t.Fatalf("row %d candidate %d: got %+v, want %+v",
					i, j, g.Candidates[j], w.Candidates[j])
			}
		}
	}
}

func TestDecisionJSONLValid(t *testing.T) {
	var buf bytes.Buffer
	c := NewDecisionJSONL(&buf)
	ds := []Decision{
		mkDecision(1, 0, 1, -1, 300.5, 250.25),
		mkDecision(2, 1, 0, 2, 284),
	}
	for _, d := range ds {
		c.RecordDecision(d)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines=%d, want 2", len(lines))
	}
	for i, line := range lines {
		var obj struct {
			T          float64 `json:"t_us"`
			Point      string  `json:"point"`
			Seq        uint64  `json:"seq"`
			Chosen     int     `json:"chosen"`
			Preferred  int     `json:"preferred"`
			ChosenCost float64 `json:"chosen_cost_us"`
			Candidates []struct {
				Proc int     `json:"proc"`
				Warm bool    `json:"warm"`
				Cost float64 `json:"cost_us"`
			} `json:"candidates"`
		}
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, line)
		}
		if obj.Seq != ds[i].Seq || obj.Point != ds[i].Point.String() ||
			obj.Chosen != ds[i].Chosen || obj.ChosenCost != ds[i].ChosenCost ||
			len(obj.Candidates) != len(ds[i].Candidates) {
			t.Fatalf("line %d mismatch: %+v vs %+v", i, obj, ds[i])
		}
	}
}
