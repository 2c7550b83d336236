// Golden-file regression test: the quick experiment suite's stdout is
// locked byte-for-byte. Any change to the simulator, the analytic
// model, the RNG streams, the schedulers or the table formatting that
// shifts a single digit in any experiment table fails this test — the
// committed golden is the contract that optimization work preserves
// every reproduced result exactly. The same runs check the run funnel:
// every simulation the suite makes must go through its one pool.
//
// Regenerate deliberately with:
//
//	go test -run TestPaperfigsQuickGolden -update .
//
// and review the diff like any other behavioural change.
package affinity_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"affinity/internal/exp"
	"affinity/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

const goldenPath = "testdata/paperfigs_quick.golden"

// quickSuiteOutput reproduces `paperfigs -quick -parallel N` stdout
// in-process through exp.RunSuite, as paperfigs runs it: tables print
// in declaration order, one blank line after each. It also returns the
// pool's counts and the DES events sim.TotalEventsFired saw over the
// suite.
func quickSuiteOutput(parallel int) ([]byte, sim.Counts, uint64) {
	pool := sim.NewPool(parallel)
	ev0 := sim.TotalEventsFired()
	tables := exp.RunSuite(exp.Config{Quick: true, Seed: 1, Pool: pool}, exp.All())
	events := sim.TotalEventsFired() - ev0
	var buf bytes.Buffer
	for _, table := range tables {
		table.Fprint(&buf)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), pool.Counts(), events
}

func TestPaperfigsQuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("quick suite takes seconds; skipped with -short")
	}
	got, counts8, events8 := quickSuiteOutput(8)
	checkFunnel(t, 8, counts8, events8)

	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, len(got))
		return
	}

	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("quick suite output diverged from %s\n%s\n"+
			"If the change is intentional, regenerate with -update and review the diff.",
			goldenPath, diffLines(t, want, got))
	}

	// The pool must yield identical bytes at any worker count — run the
	// suite again fully serialized and compare against the same golden.
	got1, counts1, events1 := quickSuiteOutput(1)
	if !bytes.Equal(got1, want) {
		t.Fatalf("-parallel 1 output diverged from -parallel 8 golden\n%s",
			diffLines(t, want, got1))
	}
	checkFunnel(t, 1, counts1, events1)
	// A coalesced duplicate counts as served from the cache whatever the
	// timing, so the counts must not depend on the width either.
	if counts1 != counts8 {
		t.Errorf("pool counts differ by width:\n-parallel 1: %+v\n-parallel 8: %+v", counts1, counts8)
	}
}

// checkFunnel asserts that every run the suite made went through its
// pool: the counts balance, E29's live runs are all there, and the pool
// counted every DES event the process fired over the suite.
func checkFunnel(t *testing.T, parallel int, c sim.Counts, events uint64) {
	t.Helper()
	if c.Requested != c.DES+c.Live+c.Cached {
		t.Errorf("-parallel %d: %d requested ≠ %d DES + %d live + %d cached",
			parallel, c.Requested, c.DES, c.Live, c.Cached)
	}
	if want := uint64(2 * len(exp.E29Cases())); c.Live != want {
		t.Errorf("-parallel %d: %d live runs executed, want %d (E29's)", parallel, c.Live, want)
	}
	if c.Events != events {
		t.Errorf("-parallel %d: the pool counted %d DES events, the process fired %d: a run bypassed the pool",
			parallel, c.Events, events)
	}
}

// diffLines reports the first few differing lines — enough to see what
// moved without dumping 300 lines of tables.
func diffLines(t *testing.T, want, got []byte) string {
	t.Helper()
	w := bytes.Split(want, []byte("\n"))
	g := bytes.Split(got, []byte("\n"))
	var out bytes.Buffer
	shown := 0
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl []byte
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if !bytes.Equal(wl, gl) {
			out.WriteString("line ")
			out.WriteString(itoa(i + 1))
			out.WriteString(":\n  want: ")
			out.Write(wl)
			out.WriteString("\n  got:  ")
			out.Write(gl)
			out.WriteByte('\n')
			if shown++; shown >= 5 {
				out.WriteString("  … (more differences elided)\n")
				break
			}
		}
	}
	if shown == 0 {
		out.WriteString("(lengths differ only in trailing bytes)\n")
	}
	return out.String()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
