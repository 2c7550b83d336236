// Schedtrace makes the affinity mechanism visible. With no arguments it
// traces the first scheduling decisions of an MRU run and prints, packet
// by packet, which processor served which stream, how displaced the
// stream's footprint was, and what the execution-time model charged.
// Cold starts and migrations — the events affinity scheduling exists to
// avoid — are flagged.
//
// It also analyzes recorded runs offline:
//
//	affinitysim -decisions ledger.csv ... && schedtrace -decisions ledger.csv
//	affinitysim -tracecsv events.csv ...  && schedtrace -events events.csv
//
// -decisions prints the decision-regret report (counts by decision
// point, regret histogram, top migrating streams); -events prints
// per-stream reordering derived from the event stream.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"affinity"
)

// firstStarts keeps the first n exec_start events, one per scheduling
// decision: the processor and stream, the displacing references the
// stream's footprint suffered (Val, +Inf when cold) and the execution
// time the model charged (Dur).
type firstStarts struct {
	n      int
	events []affinity.ObsEvent
}

func (f *firstStarts) Record(e affinity.ObsEvent) {
	if len(f.events) < f.n && e.Kind.String() == "exec_start" {
		f.events = append(f.events, e)
	}
}

func main() {
	traceOut := flag.String("trace", "", "also write a Chrome trace-event JSON of the whole run (open it at https://ui.perfetto.dev: one track per processor, one per stream)")
	ledgerIn := flag.String("decisions", "", "analyze a decision ledger CSV (from affinitysim -decisions) instead of running the demo")
	eventsIn := flag.String("events", "", "analyze an event-stream CSV (from affinitysim -tracecsv) instead of running the demo")
	topN := flag.Int("top", 5, "streams to list in the top-migrating-streams report")
	flag.Parse()

	if *ledgerIn != "" || *eventsIn != "" {
		if *ledgerIn != "" {
			analyzeLedger(*ledgerIn, *topN)
		}
		if *eventsIn != "" {
			analyzeEvents(*eventsIn)
		}
		return
	}

	p := affinity.Params{
		Paradigm:        affinity.Locking,
		Policy:          affinity.MRU,
		Streams:         4,
		Arrival:         affinity.Poisson{PacketsPerSec: 2000},
		Seed:            7,
		MeasuredPackets: 500,
	}
	starts := &firstStarts{n: 28}
	p.Recorder = starts
	var ct *affinity.ChromeTrace
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "schedtrace: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		ct = affinity.NewChromeTrace(f)
		p.Recorder = affinity.MultiRecorder(starts, ct)
	}

	res := affinity.Run(p)
	if ct != nil {
		if err := ct.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "schedtrace: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "full event trace written to %s (open at https://ui.perfetto.dev)\n", *traceOut)
	}

	fmt.Println("first scheduling decisions (Locking / MRU, 4 streams × 2000 pkt/s):")
	fmt.Printf("%-10s %-7s %-5s %-11s %-10s %s\n",
		"t (µs)", "stream", "cpu", "x (refs)", "exec (µs)", "note")
	for _, e := range starts.events {
		x := fmt.Sprintf("%.0f", e.Val)
		note := ""
		if math.IsInf(e.Val, 1) {
			x = "∞"
			note = "cold start"
		} else if strings.Contains(e.Flags.String(), "migrated") {
			note = "migrated"
		} else if e.Dur < 160 {
			note = "warm hit"
		}
		fmt.Printf("%-10.1f %-7d %-5d %-11s %-10.1f %s\n",
			e.T, e.Stream, e.Proc, x, e.Dur, note)
	}
	fmt.Printf("\nrun summary: mean delay %.1f µs, warm fraction %.2f, %d migrations, %d cold starts\n",
		res.MeanDelay, res.WarmFraction, res.Migrations, res.ColdStarts)
	fmt.Println("watch each stream settle onto \"its\" processor after the cold start,")
	fmt.Println("then pay a reload whenever a collision forces a migration.")
}

// analyzeLedger prints the decision-regret report for a recorded ledger.
func analyzeLedger(path string, topN int) {
	f, err := os.Open(path)
	if err != nil {
		fail("%v", err)
	}
	defer f.Close()
	ds, err := affinity.ReadDecisionCSV(f)
	if err != nil {
		fail("reading ledger: %v", err)
	}
	rep := affinity.AnalyzeLedger(ds)

	fmt.Printf("decision ledger: %d decisions", rep.Total)
	for _, pt := range []string{"place", "dispatch", "spill"} {
		if n := rep.ByPoint[pt]; n > 0 {
			fmt.Printf(", %d %s", n, pt)
		}
	}
	fmt.Println()
	fmt.Printf("regret: mean %.2f µs, max %.1f µs, %d/%d decisions took the cheapest candidate\n",
		rep.MeanRegret(), rep.MaxRegret, rep.ZeroRegret, rep.Total)

	fmt.Println("\nregret histogram (µs):")
	for _, b := range rep.Hist {
		label := "0 exactly"
		if b.Hi > 0 {
			label = fmt.Sprintf("(%g, %g]", b.Lo, b.Hi)
		}
		fmt.Printf("%-14s %d\n", label, b.Count)
	}

	fmt.Printf("\ntop migrating streams (of %d):\n", len(rep.Streams))
	fmt.Printf("%-7s %-10s %-7s %s\n", "stream", "decisions", "moves", "regret (µs)")
	for i, s := range rep.Streams {
		if i >= topN {
			break
		}
		fmt.Printf("%-7d %-10d %-7d %.1f\n", s.Stream, s.Decisions, s.Moves, s.Regret)
	}
}

// analyzeEvents prints the per-stream reordering report for a recorded
// event stream.
func analyzeEvents(path string) {
	f, err := os.Open(path)
	if err != nil {
		fail("%v", err)
	}
	defer f.Close()
	events, err := affinity.ReadEventsCSV(f)
	if err != nil {
		fail("reading events: %v", err)
	}
	rows := affinity.ReorderingByStream(events)

	total, reordered := 0, 0
	fmt.Println("reordering by stream (completions finishing after a later arrival of the same stream):")
	fmt.Printf("%-7s %-12s %-10s %s\n", "stream", "completions", "reordered", "max distance")
	for _, r := range rows {
		fmt.Printf("%-7d %-12d %-10d %d\n", r.Stream, r.Completions, r.Reordered, r.MaxDistance)
		total += r.Completions
		reordered += r.Reordered
	}
	frac := 0.0
	if total > 0 {
		frac = float64(reordered) / float64(total)
	}
	fmt.Printf("total: %d/%d completions reordered (%.2f%%)\n", reordered, total, 100*frac)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "schedtrace: "+format+"\n", args...)
	os.Exit(1)
}
