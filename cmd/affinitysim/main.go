// Command affinitysim runs one configurable simulation of parallel
// protocol processing under an affinity scheduling policy and prints its
// metrics.
//
// Examples:
//
//	affinitysim -paradigm locking -policy mru -streams 16 -rate 2000
//	affinitysim -paradigm ips -policy wired -streams 16 -stacks 16 -rate 1000
//	affinitysim -paradigm locking -policy fcfs -rate 1000 -burst 16 -intensity 0.5
//	affinitysim -policy rss -topology 2x4 -streams 16 -rate 2000
//	affinitysim -policy flowdir -topology 2x4:1,2.5 -burst 16 -fdrebalance 8
//	affinitysim -spec workload.json -record run.trace
//	affinitysim -replay run.trace -policy fcfs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"

	"affinity"
)

var policies = map[string]affinity.Policy{
	"fcfs":    affinity.FCFS,
	"mru":     affinity.MRU,
	"pools":   affinity.ThreadPools,
	"wired":   affinity.WiredStreams,
	"rss":     affinity.RSS,
	"flowdir": affinity.FlowDirector,
	"random":  affinity.IPSRandom,
}

var ipsPolicies = map[string]affinity.Policy{
	"wired":  affinity.IPSWired,
	"mru":    affinity.IPSMRU,
	"random": affinity.IPSRandom,
}

func main() {
	var (
		jsonOut   = flag.Bool("json", false, "emit results as JSON instead of text")
		backend   = flag.String("backend", "des", "execution backend: des (deterministic discrete-event simulation) | live (real goroutines under a virtual clock; same results as des when no two events share an instant)")
		paradigm  = flag.String("paradigm", "locking", "parallelization: locking | ips | hybrid")
		policy    = flag.String("policy", "mru", "locking: fcfs|mru|pools|wired|rss|flowdir|steal[:penalty,depth,bias]; ips: wired|mru|random")
		streams   = flag.Int("streams", 8, "number of packet streams")
		stacks    = flag.Int("stacks", 0, "independent stacks (ips only; 0 = min(streams, processors))")
		procs     = flag.Int("processors", 0, "processors (0 = platform default of 8, or the -topology shape)")
		topoSpec  = flag.String("topology", "", "machine shape \"SxC\" (S sockets × C cores) or \"SxC:same,cross\" with explicit reload-transient multipliers; empty = flat")
		fdReb     = flag.Int("fdrebalance", 0, "flowdir queue-depth trigger for re-homing a stream (0 = default of 8, negative disables rebalancing)")
		rate      = flag.Float64("rate", 1000, "per-stream packet rate (pkt/s)")
		burst     = flag.Float64("burst", 1, "mean burst size (1 = plain Poisson)")
		train     = flag.Float64("train", 0, "mean packet-train length (0 = disabled)")
		specPath  = flag.String("spec", "", "JSON workload spec file (client classes with model, streams, rates, zipf skew, on/off bursts); replaces -rate/-burst/-train and defines the stream count")
		recPath   = flag.String("record", "", "write the run's arrival trace to this file for later -replay")
		repPath   = flag.String("replay", "", "replay a recorded arrival trace instead of generating arrivals")
		intensity = flag.Float64("intensity", 1, "non-protocol workload intensity V in [0,1]")
		faultSpec = flag.String("faults", "", "fault plan, e.g. \"down:0@500ms,up:0@1.5s,slow:2x0.5@1s,loss:0.01@0s,burst:*x200@2s\"")
		maxQueue  = flag.Int("maxqueue", 0, "per-queue capacity bound; arrivals beyond it are dropped (0 = unbounded)")
		dataTouch = flag.Float64("datatouch", 0, "per-packet data-touching cost (µs)")
		packets   = flag.Int("packets", 15000, "measured packet completions")
		seed      = flag.Int64("seed", 1, "random seed")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event JSON of the run (view at https://ui.perfetto.dev)")
		csvOut    = flag.String("tracecsv", "", "write the run's event stream as a CSV time series")
		obsOut    = flag.Bool("obs", false, "print the observability metrics snapshot after the run")
		decOut    = flag.String("decisions", "", "write the scheduling decision ledger as CSV (.jsonl extension selects JSON lines)")
		tsOut     = flag.String("timeseries", "", "write fixed-interval time-series samples as CSV")
		tsIv      = flag.Float64("tsinterval", 0, "time-series interval in µs (0 = 1000)")
		metOut    = flag.String("metrics", "", "write the metrics snapshot after the run (.json extension selects JSON, otherwise Prometheus text format)")
		cpuprof   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run")
	)
	parseFlags()

	be, err := affinity.ParseBackend(*backend)
	if err != nil {
		fail("%v", err)
	}
	p := affinity.Params{
		Streams:         *streams,
		Stacks:          *stacks,
		Processors:      *procs,
		DataTouch:       *dataTouch,
		Seed:            *seed,
		MeasuredPackets: *packets,
		MaxQueueDepth:   *maxQueue,
		FDRebalance:     *fdReb,
	}
	if *topoSpec != "" {
		tp, err := affinity.ParseTopology(*topoSpec)
		if err != nil {
			fail("%v", err)
		}
		p.Topology = tp
	}
	if *faultSpec != "" {
		plan, err := affinity.ParseFaultPlan(*faultSpec)
		if err != nil {
			fail("%v", err)
		}
		p.Faults = plan
	}
	switch strings.ToLower(*paradigm) {
	case "locking":
		p.Paradigm = affinity.Locking
		if name := strings.ToLower(*policy); name == "steal" || strings.HasPrefix(name, "steal:") {
			sp, err := parseSteal(name)
			if err != nil {
				fail("%v", err)
			}
			p.Policy = affinity.AffinitySteal
			p.Steal = sp
		} else {
			pol, ok := policies[name]
			if !ok || !pol.ForLocking() {
				fail("unknown locking policy %q (fcfs|mru|pools|wired|rss|flowdir|steal[:penalty,depth,bias])", *policy)
			}
			p.Policy = pol
		}
	case "ips":
		p.Paradigm = affinity.IPS
		pol, ok := ipsPolicies[strings.ToLower(*policy)]
		if !ok {
			fail("unknown ips policy %q (wired|mru|random)", *policy)
		}
		p.Policy = pol
	case "hybrid":
		p.Paradigm = affinity.Hybrid
		pol, ok := ipsPolicies[strings.ToLower(*policy)]
		if !ok {
			fail("unknown hybrid policy %q (wired|mru|random)", *policy)
		}
		p.Policy = pol
	default:
		fail("unknown paradigm %q (locking|ips|hybrid)", *paradigm)
	}
	// Arrival selection: a workload spec or a recorded trace replaces
	// the flag-built single arrival process. Unless -streams was given
	// explicitly, the spec or trace defines the stream count (an
	// explicit mismatch is rejected by Validate below).
	streamsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "streams" {
			streamsSet = true
		}
	})
	switch {
	case *specPath != "" && *repPath != "":
		fail("-spec and -replay are mutually exclusive")
	case *recPath != "" && *repPath != "":
		fail("-record with -replay would only copy the trace")
	case *specPath != "":
		data, err := os.ReadFile(*specPath)
		if err != nil {
			fail("reading workload spec: %v", err)
		}
		spec, err := affinity.ParseWorkload(data)
		if err != nil {
			fail("%v", err)
		}
		p.Workload = spec
		if !streamsSet {
			p.Streams = 0
		}
	case *repPath != "":
		f, err := os.Open(*repPath)
		if err != nil {
			fail("opening trace: %v", err)
		}
		trace, err := affinity.ReadArrivalTrace(f)
		f.Close()
		if err != nil {
			fail("%v", err)
		}
		p.ArrivalPerStream = affinity.ReplayArrivals(trace)
		if !streamsSet {
			p.Streams = len(p.ArrivalPerStream)
		}
	case *train != 0:
		// Any nonzero train length selects the train model; out-of-range
		// values (below 1, infeasible gaps) are rejected by Validate.
		p.Arrival = affinity.Train{PacketsPerSec: *rate, MeanTrainLen: *train, IntraGap: 150}
	case *burst != 1:
		// Likewise for bursts: 0.5 is an error, not silently Poisson.
		p.Arrival = affinity.Batch{PacketsPerSec: *rate, MeanBurst: *burst}
	default:
		p.Arrival = affinity.Poisson{PacketsPerSec: *rate}
	}
	// The preempt cost scales with intensity (continuous through 0);
	// out-of-range values are rejected by Validate below.
	bg := affinity.BackgroundWithIntensity(*intensity)
	p.Background = &bg
	// Reject invalid configurations (a fault plan naming a processor
	// that doesn't exist, a negative rate, a malformed workload spec)
	// with a clean error instead of a panic from inside the run.
	defaulted := p.WithDefaults()
	if err := defaulted.Validate(); err != nil {
		fail("%v", err)
	}
	// -record rewires the validated per-stream arrivals through tee
	// wrappers that capture every draw; the trace file is written after
	// the run.
	var recTrace *affinity.ArrivalTrace
	if *recPath != "" {
		per := defaulted.ArrivalPerStream
		if per == nil {
			// A single shared arrival spec still draws per-stream (each
			// stream has its own RNG substream), so record each stream.
			per = make([]affinity.ArrivalSpec, defaulted.Streams)
			for i := range per {
				per[i] = defaulted.Arrival
			}
		}
		wrapped, trace := affinity.RecordArrivals(per)
		p.Streams = defaulted.Streams
		p.Arrival = nil
		p.Workload = nil
		p.ArrivalPerStream = wrapped
		recTrace = trace
	}

	// Observability sinks. cleanup runs explicitly before every exit
	// path (the saturation path uses os.Exit, which skips defers).
	var recs []affinity.Recorder
	var cleanup []func()
	if *traceOut != "" {
		recs = append(recs, fileSink(&cleanup, *traceOut, "trace", affinity.NewChromeTrace))
	}
	if *csvOut != "" {
		recs = append(recs, fileSink(&cleanup, *csvOut, "csv", affinity.NewCSVRecorder))
	}
	if *tsOut != "" {
		recs = append(recs, fileSink(&cleanup, *tsOut, "timeseries", func(w io.Writer) *affinity.TimeSeriesRecorder {
			return affinity.NewTimeSeriesRecorder(w, *tsIv, defaulted.Processors)
		}))
	}
	if *obsOut || *metOut != "" {
		recs = append(recs, affinity.NewMetricsRecorder())
	}
	p.Recorder = affinity.MultiRecorder(recs...)
	if *decOut != "" {
		p.DecisionRecorder = fileSink(&cleanup, *decOut, "decisions", func(w io.Writer) decisionSink {
			if strings.HasSuffix(*decOut, ".jsonl") {
				return affinity.NewDecisionJSONLRecorder(w)
			}
			return affinity.NewDecisionCSVRecorder(w)
		})
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fail("creating cpu profile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail("starting cpu profile: %v", err)
		}
		cleanup = append(cleanup, func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fail("closing cpu profile: %v", err)
			}
		})
	}

	res := affinity.RunBackend(be, p)
	for _, fn := range cleanup {
		fn()
	}
	if recTrace != nil {
		f, err := os.Create(*recPath)
		if err != nil {
			fail("creating trace file: %v", err)
		}
		if err := affinity.WriteArrivalTrace(f, recTrace); err != nil {
			fail("writing trace: %v", err)
		}
		if err := f.Close(); err != nil {
			fail("closing trace file: %v", err)
		}
	}
	if *metOut != "" {
		if res.Obs == nil {
			fail("metrics snapshot missing after the run")
		}
		f, err := os.Create(*metOut)
		if err != nil {
			fail("creating metrics file: %v", err)
		}
		if strings.HasSuffix(*metOut, ".json") {
			err = affinity.WriteMetricsJSON(f, *res.Obs)
		} else {
			err = affinity.WritePrometheus(f, *res.Obs)
		}
		if err != nil {
			fail("writing metrics: %v", err)
		}
		if err := f.Close(); err != nil {
			fail("closing metrics file: %v", err)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fail("encoding results: %v", err)
		}
	} else {
		printResults(res, defaulted)
		if *obsOut && res.Obs != nil {
			printObs(res.Obs)
		}
	}
	if res.Saturated {
		os.Exit(2)
	}
}

// decisionSink is a decision ledger written to a file: CSV or JSON lines.
type decisionSink interface {
	affinity.DecisionRecorder
	io.Closer
}

// fileSink creates path, wraps the file in the sink open returns, and
// appends to cleanup a step that closes the sink, then the file. what
// names the sink in error messages.
func fileSink[S io.Closer](cleanup *[]func(), path, what string, open func(io.Writer) S) S {
	f, err := os.Create(path)
	if err != nil {
		fail("creating %s file: %v", what, err)
	}
	s := open(f)
	*cleanup = append(*cleanup, func() {
		if err := s.Close(); err != nil {
			fail("writing %s: %v", what, err)
		}
		if err := f.Close(); err != nil {
			fail("closing %s file: %v", what, err)
		}
	})
	return s
}

func printObs(s *affinity.ObsSnapshot) {
	fmt.Printf("\nobservability (%d recorder events)\n", s.Events)
	fmt.Printf("arrivals        %d\n", s.Arrivals)
	fmt.Printf("dispatches      %d\n", s.Dispatches)
	fmt.Printf("completions     %d\n", s.Completions)
	fmt.Printf("migrations      %d (cold starts %d, spills %d)\n",
		s.Migrations, s.ColdStarts, s.Spills)
	fmt.Printf("exec time       mean %.1f µs (n=%d, sd %.1f, max %.1f)\n",
		s.ExecTime.Mean, s.ExecTime.N, s.ExecTime.StdDev, s.ExecTime.Max)
	fmt.Printf("queue wait      mean %.1f µs (n=%d, max %.1f)\n",
		s.QueueWait.Mean, s.QueueWait.N, s.QueueWait.Max)
	fmt.Printf("queue depth     mean %.1f (sampled, max %.0f)\n",
		s.QueueDepth.Mean, s.QueueDepth.Max)
	for i, b := range s.PerProcBusy {
		fmt.Printf("proc %-2d busy    %.0f µs (closed intervals)\n", i, b)
	}
}

// printResults prints r, the results of the run p (with defaults
// applied) describes.
func printResults(r affinity.Results, p affinity.Params) {
	fmt.Printf("paradigm        %s\n", r.Paradigm)
	fmt.Printf("policy          %s\n", r.Policy)
	fmt.Printf("offered load    %.0f pkt/s\n", r.OfferedRate)
	fmt.Printf("throughput      %.0f pkt/s\n", r.Throughput)
	fmt.Printf("mean delay      %.1f µs (±%.1f, 95%% CI)\n", r.MeanDelay, r.DelayCI)
	if r.P95Clamped {
		fmt.Printf("p95 delay       >%.1f µs (clamped at histogram bound; %.1f%% of delays above)\n",
			r.P95Delay, 100*r.DelayOverflow)
	} else {
		fmt.Printf("p95 delay       %.1f µs\n", r.P95Delay)
	}
	fmt.Printf("mean service    %.1f µs\n", r.MeanService)
	fmt.Printf("mean queueing   %.1f µs\n", r.MeanQueueing)
	if r.MeanLockWait > 0 {
		fmt.Printf("mean lock wait  %.1f µs\n", r.MeanLockWait)
	}
	fmt.Printf("warm fraction   %.2f\n", r.WarmFraction)
	fmt.Printf("migrations      %d (cold starts %d)\n", r.Migrations, r.ColdStarts)
	fmt.Printf("reordered       %d completions (max distance %d)\n",
		r.ReorderedTotal, r.MaxReorderDistance)
	if r.Dropped > 0 {
		fmt.Printf("dropped         %d packets (%.2f%% of arrivals), goodput %.0f pkt/s\n",
			r.Dropped, 100*r.DropFraction, r.GoodputPPS)
	}
	for i, dt := range r.PerProcDownTime {
		if dt > 0 {
			fmt.Printf("proc %-2d down    %.0f µs\n", i, dt)
		}
	}
	fmt.Printf("utilization     %.2f\n", r.Utilization)
	fmt.Printf("completed       %d packets in %v simulated\n", r.Completed, r.SimTime)
	// A run stopped short of its packet target is Saturated, but only a
	// backlog above Results.Saturated's own bound, 20 packets per
	// processor, says the load outran the machine; a run that kept up
	// ran out of horizon before it measured enough packets.
	switch {
	case r.QueueAtEnd > 20*p.Processors:
		fmt.Printf("SATURATED: offered load exceeds sustainable throughput (%d packets still queued)\n", r.QueueAtEnd)
	case r.Saturated:
		fmt.Printf("UNDERSAMPLED: reached the %v horizon with %d of %d packets measured (%d queued)\n",
			p.MaxTime, r.Completed, p.MeasuredPackets, r.QueueAtEnd)
	}
}

// parseSteal parses the -policy steal syntax: bare "steal" is the
// (0,0,0) corner (= FCFS), "steal:penalty,depth,bias" sets all three
// parameters, with "inf" accepted for the penalty (= the statically
// pinned Wired-Streams mode). Domain errors (negative values, bias
// outside [0,1]) are caught by Params.Validate after parsing.
func parseSteal(name string) (affinity.StealParams, error) {
	var sp affinity.StealParams
	if name == "steal" {
		return sp, nil
	}
	spec := strings.TrimPrefix(name, "steal:")
	parts := strings.Split(spec, ",")
	if len(parts) != 3 {
		return sp, fmt.Errorf("malformed steal policy %q (want steal:penalty,depth,bias, e.g. steal:25,2,1 or steal:inf,0,0)", name)
	}
	if parts[0] == "inf" || parts[0] == "+inf" {
		sp.Penalty = math.Inf(1)
	} else {
		v, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return sp, fmt.Errorf("steal penalty %q: %v", parts[0], err)
		}
		sp.Penalty = v
	}
	d, err := strconv.Atoi(parts[1])
	if err != nil {
		return sp, fmt.Errorf("steal depth threshold %q: %v", parts[1], err)
	}
	sp.DepthThreshold = d
	b, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return sp, fmt.Errorf("steal cold bias %q: %v", parts[2], err)
	}
	sp.ColdBias = b
	return sp, nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "affinitysim: "+format+"\n", args...)
	os.Exit(1)
}

// parseFlags parses the command line: a malformed or unknown flag, a
// float flag that is not finite, or a stray argument, exits 1 with one
// "affinitysim: " line, never the saturated run's 2; -h prints the usage
// and exits 0.
func parseFlags() {
	flag.CommandLine.Init("affinitysim", flag.ContinueOnError)
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
