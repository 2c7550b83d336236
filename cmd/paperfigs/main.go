// Command paperfigs regenerates every table and figure of the
// reproduction (see DESIGN.md §4 for the experiment index). Each
// experiment prints as an aligned text table; with -outdir the tables
// are also written as .txt and .csv files.
//
// Examples:
//
//	paperfigs                  # run the full suite
//	paperfigs -only E5,E8      # run selected experiments
//	paperfigs -quick           # sparser sweeps, fewer packets
//	paperfigs -parallel 8      # 8 simulations at a time
//	paperfigs -outdir results  # also write results/E5.txt, results/E5.csv, …
//
// All experiments execute concurrently, and every simulation they make
// — sweep points, E29's live runs, E35's search and E36's replays — goes
// through one shared pool: -parallel bounds how many run at once,
// duplicate DES configurations across experiments simulate only once,
// and the closing stderr line counts the runs requested, executed per
// backend and served from cache. Output is byte-identical at any
// -parallel value, and so are those counts.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"affinity/internal/cli"
	"affinity/internal/exp"
	"affinity/internal/sim"
)

func main() {
	var (
		only     = flag.String("only", "", "comma-separated experiment IDs (default: all)")
		charts   = flag.Bool("charts", false, "render sweep experiments as text charts too")
		mdPath   = flag.String("md", "", "assemble all tables into one markdown report file")
		par      = flag.Int("parallel", 1, "simulations to run concurrently, on either backend, 0 = GOMAXPROCS (outputs stay ordered)")
		quick    = flag.Bool("quick", false, "sparser sweeps and fewer measured packets")
		outdir   = flag.String("outdir", "", "directory to write per-experiment .txt and .csv files")
		seed     = flag.Int64("seed", 1, "base random seed")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		progress = flag.Bool("progress", false, "log per-experiment timing and event rates to stderr")
		cpuprof  = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run")
	)
	cli.ParseFlags("paperfigs")
	if *par < 0 {
		log.Fatalf("-parallel %d must be ≥ 0 (0 = GOMAXPROCS)", *par)
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	experiments := exp.All()
	if *only != "" {
		experiments = experiments[:0]
		for _, id := range strings.Split(*only, ",") {
			e, ok := exp.ByID(strings.TrimSpace(id))
			if !ok {
				log.Fatalf("unknown experiment %q (use -list)", id)
			}
			experiments = append(experiments, e)
		}
	}
	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	pool := sim.NewPool(*par)
	cfg := exp.Config{Quick: *quick, Seed: *seed, Pool: pool}
	if *progress {
		cfg.Reporter = exp.NewReporter(os.Stderr)
	}
	t0 := time.Now()
	tables := exp.RunSuite(cfg, experiments)
	wall := time.Since(t0)
	var md strings.Builder
	if *mdPath != "" {
		md.WriteString("# Reproduction results\n\n")
		md.WriteString("Generated by `paperfigs`; see EXPERIMENTS.md for the paper-vs-measured discussion.\n\n")
	}
	for _, table := range tables {
		table.Fprint(os.Stdout)
		if *charts {
			if chart := exp.DefaultChart(table); chart != nil {
				fmt.Println()
				fmt.Print(chart.Render(72, 16))
			}
		}
		fmt.Println()
		if *mdPath != "" {
			md.WriteString(table.Markdown())
			md.WriteString("\n")
			if chart := exp.DefaultChart(table); chart != nil {
				md.WriteString("```\n" + chart.Render(72, 16) + "```\n\n")
			}
		}
		if *outdir != "" {
			if err := writeFiles(*outdir, table); err != nil {
				log.Fatal(err)
			}
		}
	}
	if *mdPath != "" {
		if err := os.WriteFile(*mdPath, []byte(md.String()), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	c := pool.Counts()
	fmt.Fprintf(os.Stderr, "suite: %.1fs wall, %d runs requested: %d executed (%d DES, %d live), %d served from cache\n",
		wall.Seconds(), c.Requested, c.DES+c.Live, c.DES, c.Live, c.Cached)
}

func writeFiles(dir string, t *exp.Table) error {
	if err := os.WriteFile(filepath.Join(dir, t.ID+".txt"), []byte(t.String()), 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, t.ID+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}
