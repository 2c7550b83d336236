// Command schedsearch searches the AffinitySteal policy family for the
// fittest configuration on a workload, and optionally explains the
// winner with counterfactual decision replay.
//
// The search sweeps a penalty × depth × bias grid (which contains the
// FCFS, MRU and Wired-Streams reduction corners, so the result can
// never be worse than those fixed policies), then refines the grid
// winner by coordinate descent. All evaluations run through one
// memoizing pool; output is deterministic for fixed flags at any
// -parallel width.
//
// Examples:
//
//	schedsearch -spec workload.json -packets 12000
//	schedsearch -streams 8 -rate 1500 -burst 8 -parallel 8
//	schedsearch -penalties 0,5,25,inf -depths 0,2 -biases 0,1 -grid
//	schedsearch -streams 8 -rate 1500 -counterfactuals 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"affinity"
)

func main() {
	var (
		jsonOut   = flag.Bool("json", false, "emit the search report as JSON instead of text")
		showGrid  = flag.Bool("grid", false, "print every evaluated grid point, not just the winner")
		specPath  = flag.String("spec", "", "JSON workload spec file; replaces -rate/-burst and defines the stream count")
		streams   = flag.Int("streams", 8, "number of packet streams")
		procs     = flag.Int("processors", 0, "processors (0 = platform default of 8)")
		rate      = flag.Float64("rate", 1000, "per-stream packet rate (pkt/s)")
		burst     = flag.Float64("burst", 1, "mean burst size (1 = plain Poisson)")
		dataTouch = flag.Float64("datatouch", 0, "per-packet data-touching cost (µs)")
		packets   = flag.Int("packets", 15000, "measured packet completions per evaluation")
		seed      = flag.Int64("seed", 1, "random seed")
		parallel  = flag.Int("parallel", 0, "concurrent evaluations (0 = GOMAXPROCS); never changes the result")
		penalties = flag.String("penalties", "", "comma-separated steal-penalty axis in µs, \"inf\" allowed (empty = default space)")
		depths    = flag.String("depths", "", "comma-separated depth-threshold axis (empty = default space)")
		biases    = flag.String("biases", "", "comma-separated cold-bias axis in [0,1] (empty = default space)")
		wMean     = flag.Float64("wmean", 0, "fitness weight on mean delay (0 with all other weights 0 = defaults)")
		wP95      = flag.Float64("wp95", 0, "fitness weight on p95 delay")
		wFair     = flag.Float64("wfair", 0, "fitness weight on delay unfairness (1 − Jain index)")
		wGood     = flag.Float64("wgoodput", 0, "fitness weight on goodput shortfall (pkt/s below offered)")
		topK      = flag.Int("counterfactuals", 0, "after the search, replay the winner's k highest-regret decisions with the cheapest alternative forced in")
	)
	parseFlags()
	if *parallel < 0 {
		fail("-parallel %d must be ≥ 0 (0 = GOMAXPROCS)", *parallel)
	}

	base := affinity.Params{
		Paradigm:        affinity.Locking,
		Streams:         *streams,
		Processors:      *procs,
		DataTouch:       *dataTouch,
		Seed:            *seed,
		MeasuredPackets: *packets,
	}
	if *specPath != "" {
		data, err := os.ReadFile(*specPath)
		if err != nil {
			fail("reading workload spec: %v", err)
		}
		spec, err := affinity.ParseWorkload(data)
		if err != nil {
			fail("%v", err)
		}
		base.Workload = spec
		base.Streams = 0
	} else if *burst != 1 {
		base.Arrival = affinity.Batch{PacketsPerSec: *rate, MeanBurst: *burst}
	} else {
		base.Arrival = affinity.Poisson{PacketsPerSec: *rate}
	}

	space := affinity.DefaultSearchSpace()
	if *penalties != "" {
		var err error
		if space.Penalties, err = parseFloats(*penalties, true); err != nil {
			fail("-penalties: %v", err)
		}
	}
	if *depths != "" {
		var err error
		if space.Depths, err = parseInts(*depths); err != nil {
			fail("-depths: %v", err)
		}
	}
	if *biases != "" {
		var err error
		if space.Biases, err = parseFloats(*biases, false); err != nil {
			fail("-biases: %v", err)
		}
	}
	for _, v := range space.Penalties {
		if v < 0 || math.IsNaN(v) {
			fail("-penalties: penalty %g outside [0, +inf]", v)
		}
	}
	for _, v := range space.Depths {
		if v < 0 {
			fail("-depths: depth threshold %d must be ≥ 0", v)
		}
	}
	for _, v := range space.Biases {
		if v < 0 || v > 1 || math.IsNaN(v) {
			fail("-biases: cold bias %g outside [0, 1]", v)
		}
	}
	weights := affinity.DefaultSearchWeights()
	if *wMean != 0 || *wP95 != 0 || *wFair != 0 || *wGood != 0 {
		weights = affinity.SearchWeights{
			MeanDelay: *wMean, P95Delay: *wP95,
			Unfairness: *wFair, GoodputShortfall: *wGood,
		}
	}

	// Validate the base configuration (with an arbitrary in-domain steal
	// point) before launching a whole grid of runs at it.
	probe := base
	probe.Policy = affinity.AffinitySteal
	probed := probe.WithDefaults()
	if err := probed.Validate(); err != nil {
		fail("%v", err)
	}

	pool := affinity.NewPool(*parallel)
	report := affinity.SearchStealPolicies(pool, base, space, weights)

	var cfs []affinity.Counterfactual
	var factual affinity.Results
	if *topK > 0 {
		winner := base
		winner.Policy = affinity.AffinitySteal
		winner.Steal = report.Best.Steal
		var ledger *affinity.LedgerRecorder
		factual, ledger = affinity.FactualRun(winner)
		cfs = affinity.TopCounterfactuals(winner, factual, ledger, *topK)
	}

	if *jsonOut {
		out := struct {
			affinity.SearchReport
			Counterfactuals []affinity.Counterfactual `json:",omitempty"`
		}{report, cfs}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fail("encoding report: %v", err)
		}
		return
	}

	b := report.Best
	fmt.Printf("evaluated       %d configurations (%d grid + descent)\n",
		report.Evaluated, len(report.Grid))
	fmt.Printf("best            steal:%s\n", stealSpec(b.Steal))
	fmt.Printf("fitness         %.3f\n", b.Fitness)
	fmt.Printf("mean delay      %.1f µs\n", b.Results.MeanDelay)
	fmt.Printf("p95 delay       %.1f µs\n", b.Results.P95Delay)
	fmt.Printf("warm fraction   %.2f\n", b.Results.WarmFraction)
	fmt.Printf("goodput         %.0f pkt/s (offered %.0f)\n",
		b.Results.GoodputPPS, b.Results.OfferedRate)
	if *showGrid {
		fmt.Printf("\n%-16s %10s %12s %8s\n", "steal point", "fitness", "mean delay", "warm")
		for _, c := range report.Grid {
			fmt.Printf("%-16s %10.3f %12.1f %8.2f\n",
				stealSpec(c.Steal), c.Fitness, c.Results.MeanDelay, c.Results.WarmFraction)
		}
	}
	if *topK > 0 {
		fmt.Printf("\ntop-%d counterfactuals on the winner (factual mean delay %.1f µs)\n",
			*topK, factual.MeanDelay)
		if len(cfs) == 0 {
			fmt.Println("no positive-regret decisions: every choice was already the cheapest candidate")
		}
		for i, cf := range cfs {
			fmt.Printf("#%d decision %-6d stream %-3d predicted gain %8.1f µs/pkt   realized Δmean %+8.3f µs\n",
				i+1, cf.Index, cf.Decision.Stream, cf.PredictedGain, cf.RealizedGain)
		}
	}
}

// stealSpec renders StealParams in the affinitysim -policy spelling, so
// the winner is copy-pasteable into a run.
func stealSpec(sp affinity.StealParams) string {
	pen := strconv.FormatFloat(sp.Penalty, 'g', -1, 64)
	if math.IsInf(sp.Penalty, 1) {
		pen = "inf"
	}
	return fmt.Sprintf("%s,%d,%s", pen, sp.DepthThreshold,
		strconv.FormatFloat(sp.ColdBias, 'g', -1, 64))
}

func parseFloats(s string, allowInf bool) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if allowInf && (part == "inf" || part == "+inf") {
			out = append(out, math.Inf(1))
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "schedsearch: "+format+"\n", args...)
	os.Exit(1)
}

// parseFlags parses the command line: a malformed or unknown flag, a
// float flag that is not finite, or a stray argument, exits 1 with one
// "schedsearch: " line; -h prints the usage and exits 0.
func parseFlags() {
	flag.CommandLine.Init("schedsearch", flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	switch err := flag.CommandLine.Parse(os.Args[1:]); {
	case err == flag.ErrHelp:
		flag.CommandLine.SetOutput(os.Stderr)
		flag.Usage()
		os.Exit(0)
	case err != nil:
		fail("%v", err)
	case flag.NArg() > 0:
		fail("unexpected argument %q", flag.Arg(0))
	}
	// NaN and ±Inf parse as floats, but no float flag means anything
	// with them: refuse them before they become costs or event times.
	flag.Visit(func(f *flag.Flag) {
		if x, ok := f.Value.(flag.Getter).Get().(float64); ok && (math.IsNaN(x) || math.IsInf(x, 0)) {
			fail("invalid value %q for flag -%s: not a finite number", f.Value, f.Name)
		}
	})
}
