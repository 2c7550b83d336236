package faults

import (
	"math"
	"strings"
	"testing"

	"affinity/internal/des"
)

func TestEmptyPlan(t *testing.T) {
	var nilPlan *Plan
	if !nilPlan.Empty() || nilPlan.HasLoss() || nilPlan.String() != "" {
		t.Error("nil plan must be empty, lossless and render as \"\"")
	}
	if err := nilPlan.Validate(8, 8); err != nil {
		t.Errorf("nil plan must validate: %v", err)
	}
	p := &Plan{}
	if !p.Empty() || p.String() != "" {
		t.Error("zero plan must be empty and render as \"\"")
	}
}

func TestBuildersAndString(t *testing.T) {
	p := (&Plan{}).
		Down(500*des.Millisecond, 0).
		Up(1500*des.Millisecond, 0).
		Slow(des.Second, 2, 0.5).
		WithLoss(0, 0.01).
		WithBurst(2*des.Second, -1, 200)
	if err := p.Validate(8, 8); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	want := "loss:0.01@0s,down:0@500ms,slow:2x0.5@1s,up:0@1.5s,burst:*x200@2s"
	if got := p.String(); got != want {
		t.Errorf("String:\n got %q\nwant %q", got, want)
	}
	if !p.HasLoss() {
		t.Error("plan with loss event must report HasLoss")
	}
}

func TestSortedIsStableAndNonMutating(t *testing.T) {
	p := (&Plan{}).Up(des.Second, 1).Down(0, 1).Down(des.Second, 2)
	evs := p.Sorted()
	if evs[0].Kind != ProcDown || evs[0].Proc != 1 {
		t.Errorf("first sorted event = %+v, want down:1@0", evs[0])
	}
	// Same-time events keep declaration order.
	if evs[1].Kind != ProcUp || evs[2].Kind != ProcDown {
		t.Errorf("tie order not stable: %+v", evs)
	}
	// The plan's own order is untouched.
	if p.Events[0].Kind != ProcUp {
		t.Error("Sorted mutated the plan's declaration order")
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		plan *Plan
		want string
	}{
		{"negative time", (&Plan{}).Down(-1, 0), "negative time"},
		{"proc out of range", (&Plan{}).Down(0, 8), "outside [0, 8)"},
		{"negative proc", (&Plan{}).Up(0, -1), "outside"},
		{"bad factor", (&Plan{}).Slow(0, 0, 0), "must be positive"},
		{"bad prob", (&Plan{}).WithLoss(0, 1.5), "outside [0, 1]"},
		{"NaN time", (&Plan{}).Down(des.Time(math.NaN()), 0), "not finite"},
		{"infinite time", (&Plan{}).WithLoss(des.Time(math.Inf(1)), 0.1), "not finite"},
		{"NaN factor", (&Plan{}).Slow(0, 0, math.NaN()), "must be positive"},
		{"infinite factor", (&Plan{}).Slow(0, 0, math.Inf(1)), "finite"},
		{"NaN prob", (&Plan{}).WithLoss(0, math.NaN()), "outside [0, 1]"},
		{"bad burst stream", (&Plan{}).WithBurst(0, 9, 5), "outside [-1, 8)"},
		{"bad burst count", (&Plan{}).WithBurst(0, 0, 0), "must be positive"},
		{"double down", (&Plan{}).Down(0, 3).Down(des.Second, 3), "already down"},
		{"up while up", (&Plan{}).Up(des.Second, 3), "not down"},
	}
	for _, c := range cases {
		err := c.plan.Validate(8, 8)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.want)
		}
	}
	// Down without a matching up is a valid plan (the processor simply
	// stays failed to the end of the run).
	if err := ((&Plan{}).Down(des.Second, 3)).Validate(8, 8); err != nil {
		t.Errorf("unpaired down rejected: %v", err)
	}
}

func TestParseRoundTrip(t *testing.T) {
	specs := []string{
		"",
		"down:0@500ms,up:0@1.5s",
		"loss:0.01@0s,down:0@500ms,slow:2x0.5@1s,up:0@1.5s,burst:*x200@2s",
		"burst:3x50@250ms",
	}
	for _, s := range specs {
		p, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := p.String(); got != s {
			t.Errorf("round trip of %q gave %q", s, got)
		}
	}
	// Whitespace and unsorted input canonicalize.
	p, err := Parse(" up:0@2s , down:0@1s ")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.String(); got != "down:0@1s,up:0@2s" {
		t.Errorf("canonical form = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{
		"down0@1s",     // no colon
		"down:0",       // no @TIME
		"down:x@1s",    // bad proc
		"down:0@elevn", // bad time
		"slow:1@1s",    // missing factor
		"slow:1xq@1s",  // bad factor
		"loss:q@1s",    // bad prob
		"burst:1@1s",   // missing count
		"burst:qx5@1s", // bad stream
		"burst:1xq@1s", // bad count
		"explode:1@1s", // unknown kind
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}
