// Command calibrate regenerates the paper's implementation measurements
// (Table T2): per-packet protocol execution times under controlled cache
// states, measured by replaying the protocol reference trace against the
// two-level cache simulator. With -validate it also runs the
// displacement validation sweep (experiment E4), comparing the analytic
// F1/F2 curves against the simulator.
package main

import (
	"flag"
	"fmt"
	"os"

	"affinity/internal/cachesim"
	"affinity/internal/calib"
	"affinity/internal/cli"
	"affinity/internal/core"
	"affinity/internal/exp"
)

func main() {
	validate := flag.Bool("validate", false, "also run the E4 displacement validation sweep")
	seed := flag.Int64("seed", 1, "random seed for the validation sweep")
	cli.ParseFlags("calibrate")

	r := calib.Measure(core.SGIChallengeXL(), cachesim.DefaultTiming())
	fmt.Println("Calibration: packet execution time under controlled cache states")
	fmt.Println()
	fmt.Printf("  %-22s %12s %14s\n", "cache state", "simulated", "normalized")
	fmt.Printf("  %-22s %9.2f µs %11.2f µs\n", "warm (both levels)", r.Raw.TWarm, r.Normalized.TWarm)
	fmt.Printf("  %-22s %9.2f µs %11.2f µs\n", "L1 cold, L2 warm", r.Raw.TL1Cold, r.Normalized.TL1Cold)
	fmt.Printf("  %-22s %9.2f µs %11.2f µs\n", "cold (both levels)", r.Raw.TCold, r.Normalized.TCold)
	fmt.Println()
	fmt.Printf("  normalization scale   %.4f (anchors cold time on the paper's %.1f µs)\n", r.Scale, calib.PaperTCold)
	fmt.Printf("  trace                 %d refs/packet, %d-byte footprint\n", r.RefsPerPacket, r.FootprintBytes)
	fmt.Printf("  cold misses           %d L1, %d L2\n", r.L1MissesCold, r.L2MissesCold)
	fmt.Printf("  max affinity benefit  %.1f%% (paper band: 40-50%%)\n", 100*r.Normalized.MaxReduction())

	def := core.PaperCalibration()
	drift := func(a, b float64) bool { return a-b > 0.05 || b-a > 0.05 }
	if drift(r.Normalized.TWarm, def.TWarm) || drift(r.Normalized.TL1Cold, def.TL1Cold) {
		fmt.Fprintf(os.Stderr, "\nwarning: measurement drifted from core.PaperCalibration() %+v\n", def)
		os.Exit(1)
	}

	if *validate {
		fmt.Println()
		tbl := exp.FigE4(exp.Config{Seed: *seed})
		tbl.Fprint(os.Stdout)
	}
}
