// Command affinitybench is the repository benchmark. It runs the four
// workloads of package bench, checks every operation's output, and
// prints every metric by name with its unit; the last line of its
// standard output is a one-line JSON summary.
//
// Usage, from the repository root (see bench/README.md):
//
//	affinitybench [run] [-workload all|NAME] [-seed N] [-seconds S] [-base DIR] [-out FILE]
//	affinitybench trace [-workload all|NAME] [-seed N] [-out FILE]
//	affinitybench compare BASELINE.json CANDIDATE.json
//
// run measures the end-to-end metrics, over 21 rounds or S seconds of
// timed ops; trace, or run -trace 1, measures the per-layer metrics and
// writes the span files under bench/out. compare exits 1 when any
// end-to-end metric of the candidate is worse than the baseline's by
// more than its bound in BENCHMARK.json. run -base DIR builds the
// checkout at DIR as the baseline, runs its ops interleaved with this
// checkout's, writes its result beside this one's with a -base suffix,
// and compares the two as compare does.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"

	"affinity/bench"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	mode := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		mode, args = args[0], args[1:]
	}
	var err error
	code := 0
	switch mode {
	case "run", "trace":
		code, err = measure(mode, args)
	case "compare":
		code, err = compare(args)
	case "worker":
		err = worker(args)
	default:
		err = fmt.Errorf("unknown command %q (want run, trace or compare)", mode)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "affinitybench: %v\n", err)
		return 1
	}
	return code
}

func measure(mode string, args []string) (int, error) {
	fs := flag.NewFlagSet(mode, flag.ContinueOnError)
	var (
		workload = fs.String("workload", "all", "all, or one of "+strings.Join(bench.Names, ", "))
		seed     = fs.Int64("seed", 1, "seed the workload inputs are made from")
		seconds  = fs.Float64("seconds", 0, "host seconds of timed ops to run instead of 21 rounds")
		trace    = fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
		baseDir  = fs.String("base", "", "checkout of a baseline to build and run interleaved with this one")
		out      = fs.String("out", "", "result JSON path (default bench/out/<mode>-seed<N>.json)")
	)
	if mode == "trace" {
		*trace = 1
	}
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	switch {
	case fs.NArg() > 0:
		return 0, fmt.Errorf("unexpected arguments %q", fs.Args())
	case *trace != 0 && *trace != 1:
		return 0, fmt.Errorf("-trace %d: want 0 or 1", *trace)
	case *trace == 1 && *baseDir != "":
		return 0, fmt.Errorf("-base: a traced run measures one build")
	case *seconds < 0 || *seconds > 3600:
		return 0, fmt.Errorf("-seconds %v outside [0, 3600]", *seconds)
	case *workload != "all" && !slices.Contains(bench.Names, *workload):
		return 0, fmt.Errorf("unknown workload %q (want all or one of %s)", *workload, strings.Join(bench.Names, ", "))
	}
	names := bench.Names
	if *workload != "all" {
		names = []string{*workload}
	}
	root, err := bench.FindRoot()
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(filepath.Join(root, bench.OutDir), 0o755); err != nil {
		return 0, err
	}
	if *trace == 1 {
		mode = "trace"
	}
	if *out == "" {
		*out = filepath.Join(root, bench.OutDir, fmt.Sprintf("%s-seed%d.json", mode, *seed))
	}
	cfg := bench.Config{Workloads: names, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Root: root}
	var bounds []bench.Bound
	if *baseDir != "" {
		m, err := bench.ReadManifest(filepath.Join(root, "BENCHMARK.json"))
		if err != nil {
			return 0, err
		}
		bounds = m.EndToEnd
		if cfg.Base, err = buildBase(*baseDir); err != nil {
			return 0, err
		}
	}
	res, base, err := bench.Run(cfg)
	if err != nil {
		return 0, err
	}
	if err := bench.WriteResult(*out, res); err != nil {
		return 0, err
	}
	code := 0
	if base != nil {
		if err := bench.WriteResult(strings.TrimSuffix(*out, ".json")+"-base.json", base); err != nil {
			return 0, err
		}
		fmt.Println("baseline:")
		bench.Print(os.Stdout, base)
		fmt.Println("this checkout:")
	}
	bench.Print(os.Stdout, res)
	if base != nil {
		ok, err := bench.Compare(os.Stdout, base, res, bounds)
		if err != nil {
			return 0, err
		}
		if !ok {
			code = 1
		}
	}
	line, err := json.Marshal(bench.Summarize(res))
	if err != nil {
		return 0, err
	}
	fmt.Printf("%s\n", line)
	return code, nil
}

// buildBase builds the affinitybench of the checkout at dir beside this
// executable, with the Go environment this process runs in.
func buildBase(dir string) (*bench.Side, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	bin := filepath.Join(filepath.Dir(exe), "affinitybench-base")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/affinitybench")
	cmd.Dir = filepath.Join(root, "bench")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("build the baseline in %s: %w", cmd.Dir, err)
	}
	return &bench.Side{Exe: bin, Root: root}, nil
}

func compare(args []string) (int, error) {
	if len(args) != 2 {
		return 0, fmt.Errorf("compare wants two result files, got %d arguments", len(args))
	}
	root, err := bench.FindRoot()
	if err != nil {
		return 0, err
	}
	m, err := bench.ReadManifest(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return 0, err
	}
	a, err := bench.ReadResult(args[0])
	if err != nil {
		return 0, err
	}
	b, err := bench.ReadResult(args[1])
	if err != nil {
		return 0, err
	}
	ok, err := bench.Compare(os.Stdout, a, b, m.EndToEnd)
	if err != nil || ok {
		return 0, err
	}
	return 1, nil
}

// worker is the process one workload runs in; the coordinator starts it.
func worker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to serve")
	seed := fs.Int64("seed", 1, "input seed")
	root := fs.String("root", ".", "repository root")
	spans := fs.String("spans", "", "span file to write")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return bench.Serve(os.Stdin, os.Stdout, *name, *seed, *root, *spans)
}
