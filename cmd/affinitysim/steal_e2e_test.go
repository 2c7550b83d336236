package main

import (
	"strings"
	"testing"
)

// stealArgs is a fixed base configuration; only -policy varies across
// the corner-equivalence cases below.
func stealArgs(policy string) []string {
	return []string{
		"-paradigm", "locking", "-policy", policy,
		"-streams", "8", "-rate", "1500", "-burst", "4",
		"-packets", "2000", "-seed", "3",
	}
}

// TestCLIStealCorners pins the family's reduction corners end to end
// through the real binary: bare "steal" (the zero value) is FCFS,
// full cold bias is MRU, and an infinite penalty is Wired-Streams —
// byte-for-byte on everything but the policy name line. This is the
// CLI-level spelling of the corner-equivalence property tests.
func TestCLIStealCorners(t *testing.T) {
	cases := []struct{ steal, fixed string }{
		{"steal", "fcfs"},
		{"steal:0,0,0", "fcfs"},
		{"steal:0,0,1", "mru"},
		{"steal:inf,0,0", "wired"},
	}
	for _, c := range cases {
		got, stderr, code := run(t, stealArgs(c.steal)...)
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr: %s", c.steal, code, stderr)
		}
		want, stderr, code := run(t, stealArgs(c.fixed)...)
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr: %s", c.fixed, code, stderr)
		}
		if norm := normalizePolicyLine(got); norm != normalizePolicyLine(want) {
			t.Errorf("-policy %s diverges from -policy %s:\n%s\nvs\n%s", c.steal, c.fixed, got, want)
		}
	}
}

// normalizePolicyLine blanks the "policy" output line so corner runs
// can be compared byte-for-byte on their metrics.
func normalizePolicyLine(out string) string {
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "policy") {
			lines[i] = "policy          <normalized>"
		}
	}
	return strings.Join(lines, "\n")
}

// TestCLIStealInterior: an interior point is a distinct policy — it
// must run clean and differ from every corner (if it matched one, the
// parameters would be dead flags).
func TestCLIStealInterior(t *testing.T) {
	got, stderr, code := run(t, stealArgs("steal:25,2,1")...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(got, "policy          AffinitySteal") {
		t.Errorf("output does not name AffinitySteal:\n%s", got)
	}
	for _, corner := range []string{"fcfs", "mru", "wired"} {
		want, _, _ := run(t, stealArgs(corner)...)
		if normalizePolicyLine(got) == normalizePolicyLine(want) {
			t.Errorf("interior steal:25,2,1 is byte-identical to %s — parameters are dead", corner)
		}
	}
}

// TestCLIStealBadSpecsExitOne: malformed and out-of-domain steal specs
// exit 1 with the affinitysim: prefix, never panic or silently run.
func TestCLIStealBadSpecsExitOne(t *testing.T) {
	cases := [][]string{
		{"-policy", "steal:bad"},
		{"-policy", "steal:1,2"},                        // two fields
		{"-policy", "steal:1,2,3,4"},                    // four fields
		{"-policy", "steal:x,0,0"},                      // unparseable penalty
		{"-policy", "steal:0,x,0"},                      // unparseable depth
		{"-policy", "steal:0,0,x"},                      // unparseable bias
		{"-policy", "steal:0,1.5,0"},                    // non-integer depth
		{"-policy", "steal:-5,0,0"},                     // negative penalty (Validate)
		{"-policy", "steal:0,-1,0"},                     // negative depth (Validate)
		{"-policy", "steal:0,0,2"},                      // bias outside [0,1] (Validate)
		{"-paradigm", "ips", "-policy", "steal"},        // Locking-only
		{"-paradigm", "ips", "-policy", "steal:25,2,1"}, // Locking-only
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
