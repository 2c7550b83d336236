// Package exp defines the reproduction's experiments: one per table or
// figure of the paper's evaluation (see DESIGN.md §4 for the mapping
// from experiment IDs to paper results). Each experiment produces a
// Table that cmd/paperfigs renders as text and CSV, and bench_test.go
// exposes as testing.B benchmarks.
package exp

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"sync"

	"affinity/internal/sim"
)

// Config controls experiment execution.
type Config struct {
	// Quick trades statistical tightness for speed (fewer measured
	// packets, sparser sweeps) — used by tests and -quick runs.
	Quick bool
	// Seed is the base random seed; every simulation derives its own
	// streams from it.
	Seed int64
	// Pool, when non-nil, is the pool every run an experiment makes goes
	// through: its grid's points and its policy searches and replays.
	// Sharing one pool across experiments parallelizes the whole suite
	// at sweep-point granularity, lets configurations repeated across
	// experiments simulate once, and counts every run. When nil, each
	// experiment falls back to a serial single-worker pool of its own.
	Pool *sim.Pool
	// Reporter, when non-nil, receives per-experiment and per-point
	// progress.
	Reporter *Reporter
}

// pool returns the pool the experiment's runs go through.
func (c Config) pool() *sim.Pool {
	if c.Pool == nil {
		return sim.NewPool(1)
	}
	return c.Pool
}

// packets returns the measured-packet budget for one simulation.
func (c Config) packets() int {
	if c.Quick {
		return 3000
	}
	return 12000
}

// Table is one experiment's output.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row; values are formatted with %v unless
// already strings.
func (t *Table) AddRow(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case string:
			row[i] = x
		case float64:
			row[i] = trimFloat(x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func trimFloat(x float64) string {
	s := fmt.Sprintf("%.2f", x)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// Note appends a free-form annotation printed under the table.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint writes an aligned text rendering.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], cell)
		}
		fmt.Fprintln(w)
	}
	line(t.Columns)
	total := len(t.Columns) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// WriteCSV writes the table as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	if err := cw.WriteAll(t.Rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// String renders the table as text.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// Experiment is a runnable reproduction of one paper table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) *Table
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"T1", "Platform and model parameters", TableT1},
		{"T2", "Calibrated packet times under controlled cache states", TableT2},
		{"E1", "Footprint function u(R, L)", FigE1},
		{"E2", "Displacement fractions F1(x), F2(x)", FigE2},
		{"E3", "Packet execution time T(x)", FigE3},
		{"E4", "Model validation against the cache simulator", FigE4},
		{"E5", "Locking: delay vs arrival rate, FCFS vs MRU (Fig 6 scenario)", FigE5},
		{"E6", "Locking: delay vs rate, MRU vs ThreadPools vs WiredStreams (Fig 7 scenario)", FigE6},
		{"E7", "IPS: delay vs rate, Wired vs MRU vs Random", FigE7},
		{"E8", "Locking: % delay reduction from affinity, data-touch sweep (Fig 10 scenario)", FigE8},
		{"E9", "IPS: % delay reduction from affinity, data-touch sweep (Fig 11 scenario)", FigE9},
		{"E10", "Locking vs IPS: latency and throughput capacity", FigE10},
		{"E11", "Concurrent-stream capacity under a delay budget", FigE11},
		{"E12", "Intra-stream scalability: single-stream throughput", FigE12},
		{"E13", "Robustness to intra-stream burstiness", FigE13},
		{"E14", "IPS: varying the number of independent stacks (extension iii)", FigE14},
		{"E15", "Packet-train arrivals (extension ii)", FigE15},
		{"E16", "Data-touching overhead vs affinity benefit", FigE16},
		{"E17", "Send-side UDP/IP/FDDI processing (extension i)", FigE17},
		{"E18", "Hybrid Locking/IPS paradigm under bursts (TR proposal)", FigE18},
		{"E19", "Design-choice ablations (lookahead, code sharing, lock fraction)", FigE19},
		{"E20", "DES validation against queueing theory", FigE20},
		{"E21", "TCP/IP receive processing (future-work problem)", FigE21},
		{"E22", "Heterogeneous stream rates under every policy", FigE22},
		{"E23", "Seed robustness of the headline conclusions", FigE23},
		{"E24", "Platform sensitivity: reload transient vs benefit (Vaswani–Zahorjan reconciliation)", FigE24},
		{"E25", "Data-touching rate validation (32 bytes/µs checksum)", FigE25},
		{"E26", "Policy resilience under a single-processor failure", FigE26},
		{"E27", "Bounded queues under overload: drop/goodput vs queue bound", FigE27},
		{"E28", "Recovery-transient length after processor failback", FigE28},
		{"E29", "Live-backend cross-validation: DES vs goroutine policy orderings", FigE29},
		{"E30", "Per-stream packet reordering: migrating policies vs Wired-Streams", FigE30},
		{"E31", "Zipf stream-popularity skew vs affinity benefit", FigE31},
		{"E32", "Scheduling policies on one replayed ON/OFF burst trace", FigE32},
		{"E33", "NUMA topology sweep: MRU vs Wired-Streams vs cross-socket transient cost", FigE33},
		{"E34", "Hash dispatch (RSS, Flow Director) vs MRU on bursty Zipf traffic", FigE34},
		{"E35", "Searched affinity-steal policy vs the five paper policies on Zipf burst traffic", FigE35},
		{"E36", "Counterfactual regret: one-step prediction vs ground-truth re-simulation", FigE36},
	}
}

// RunSuite runs the experiments concurrently on cfg.Pool, brackets each
// with cfg.Reporter's Start and Done, and returns their tables in the
// order given. Every run they make goes through the pool, so its slots
// bound the whole suite and its Counts cover every run.
func RunSuite(cfg Config, experiments []Experiment) []*Table {
	tables := make([]*Table, len(experiments))
	var wg sync.WaitGroup
	for i, e := range experiments {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if cfg.Reporter != nil {
				cfg.Reporter.Start(e.ID, e.Title)
				defer cfg.Reporter.Done(e.ID)
			}
			tables[i] = e.Run(cfg)
		}()
	}
	wg.Wait()
	return tables
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// Markdown renders the table as GitHub-flavored markdown (used by
// paperfigs -md to assemble a results report).
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	esc := func(s string) string { return strings.ReplaceAll(s, "|", "\\|") }
	b.WriteString("|")
	for _, c := range t.Columns {
		b.WriteString(" " + esc(c) + " |")
	}
	b.WriteString("\n|")
	for range t.Columns {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		b.WriteString("|")
		for _, cell := range row {
			b.WriteString(" " + esc(cell) + " |")
		}
		b.WriteString("\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n> %s\n", n)
	}
	return b.String()
}
