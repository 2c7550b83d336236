// Benchmarks: one whole experiment (E5, regenerating its rows in quick
// mode) plus micro-benchmarks for the hot components — the analytic
// model, the cache simulator, the DES engine, the protocol receive path,
// and the simulation itself. scripts/benchgate.sh gates a subset; the
// bench/ module (affinitybench) times the whole suite end to end.
//
// Run with: go test -bench=. -benchmem
package affinity_test

import (
	"strconv"
	"testing"

	"affinity"
	"affinity/internal/cachesim"
	"affinity/internal/core"
	"affinity/internal/des"
	"affinity/internal/driver"
	"affinity/internal/memtrace"
	"affinity/internal/traffic"
	"affinity/internal/xkernel"
	"affinity/internal/xkernel/fddi"
	"affinity/internal/xkernel/ip"
)

// BenchmarkFigE5LockingDelay regenerates E5's table (the paper's Fig 6
// scenario) per iteration.
func BenchmarkFigE5LockingDelay(b *testing.B) {
	e, ok := affinity.ExperimentByID("E5")
	if !ok {
		b.Fatal("unknown experiment E5")
	}
	cfg := affinity.ExperimentConfig{Quick: true, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := e.Run(cfg); len(tbl.Rows) == 0 {
			b.Fatal("E5 produced no rows")
		}
	}
}

// --- micro-benchmarks ---

func BenchmarkModelExecTime(b *testing.B) {
	m := core.NewModel()
	sum := 0.0
	for i := 0; i < b.N; i++ {
		sum += m.ExecTime(float64(i%200000) * 10)
	}
	_ = sum
}

// BenchmarkExecTimeCompiled times the compiled model, the evaluator
// the simulator calls once per packet.
func BenchmarkExecTimeCompiled(b *testing.B) {
	e := core.NewModel().Compile()
	sum := 0.0
	for i := 0; i < b.N; i++ {
		sum += e.ExecTime(float64(i%200000) * 10)
	}
	_ = sum
}

func BenchmarkModelDisplacedFraction(b *testing.B) {
	c := core.SGIChallengeXL().L2
	w := core.MVSWorkload()
	sum := 0.0
	for i := 0; i < b.N; i++ {
		sum += core.DisplacedFraction(w.UniqueLines(float64(i%100000), 128), c)
	}
	_ = sum
}

func BenchmarkCacheSimAccess(b *testing.B) {
	h := cachesim.New(core.SGIChallengeXL(), cachesim.DefaultTiming())
	trace := memtrace.NewProtocolTrace(0).Packet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := trace[i%len(trace)]
		h.Access(r.Addr, r.Kind)
	}
}

func BenchmarkCacheSimColdPacket(b *testing.B) {
	h := cachesim.New(core.SGIChallengeXL(), cachesim.DefaultTiming())
	trace := memtrace.NewProtocolTrace(0).Packet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.FlushAll()
		for _, r := range trace {
			h.Access(r.Addr, r.Kind)
		}
	}
}

// BenchmarkDESScheduleFire times one schedule+fire pair through the
// engine's only scheduling path: ScheduleArg with a non-capturing
// handler, as the runner uses it.
func BenchmarkDESScheduleFire(b *testing.B) {
	s := des.NewSimulator()
	for i := 0; i < b.N; i++ {
		s.ScheduleArg(des.Time(i%64), noopEvent, nil)
		s.Step()
	}
}

func noopEvent(any) {}

func BenchmarkProtocolDemuxSmallPacket(b *testing.B) {
	host := driver.NewStack(driver.Config{
		MAC:            fddi.Addr{0x02, 0, 0, 0, 0, 0x01},
		Addr:           ip.MustParse(10, 0, 0, 1),
		VerifyChecksum: true,
	})
	if _, err := host.UDP.Bind(9, nil); err != nil {
		b.Fatal(err)
	}
	flow := driver.NewFlow(
		driver.Endpoint{MAC: fddi.Addr{0x02, 0, 0, 0, 0, 0x02}, Addr: ip.MustParse(10, 0, 0, 2), Port: 1},
		driver.Endpoint{MAC: fddi.Addr{0x02, 0, 0, 0, 0, 0x01}, Addr: ip.MustParse(10, 0, 0, 1), Port: 9},
	)
	flow.Checksum = true
	frame := flow.Build(64)
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := host.Deliver(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChecksumMaxFDDIPayload(b *testing.B) {
	payload := make([]byte, 4432)
	b.SetBytes(4432)
	for i := 0; i < b.N; i++ {
		xkernel.Checksum(0, payload)
	}
}

func BenchmarkSimulationPerPacket(b *testing.B) {
	// Cost of one simulated packet through the DES + model + policies.
	n := b.N
	if n < 100 {
		n = 100
	}
	p := affinity.Params{
		Paradigm:        affinity.Locking,
		Policy:          affinity.MRU,
		Streams:         8,
		Arrival:         affinity.Poisson{PacketsPerSec: 2000},
		Seed:            1,
		MeasuredPackets: n,
	}
	b.ResetTimer()
	res := affinity.Run(p)
	b.StopTimer()
	if res.Completed == 0 {
		b.Fatal("no packets completed")
	}
}

func BenchmarkWorkloadSpecPerPacket(b *testing.B) {
	// Steady-state cost of drawing one arrival from a generated workload
	// (Zipf-split Poisson, batch, and ON/OFF-modulated CBR streams): the
	// per-packet hot path of every spec-driven simulation. Drawing must
	// be allocation-free — setup (parse, generate, build) is outside the
	// timed region.
	spec, err := affinity.ParseWorkload([]byte(`{
		"classes": [
			{"name": "web", "model": "poisson", "streams": 6, "rate_pps": 4200, "zipf": 1.2},
			{"name": "bulk", "model": "batch", "streams": 2, "rate_pps": 1800, "mean_burst": 4},
			{"name": "control", "model": "cbr", "streams": 1, "rate_pps": 100, "on_us": 20000, "off_us": 60000}
		]
	}`))
	if err != nil {
		b.Fatal(err)
	}
	per, err := spec.Generate()
	if err != nil {
		b.Fatal(err)
	}
	procs := make([]traffic.Process, len(per))
	for i, s := range per {
		procs[i] = s.Build(des.Stream(1, "arrivals-"+strconv.Itoa(i)))
	}
	var sink des.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, _ := procs[i%len(procs)].Next()
		sink += d
	}
	_ = sink
}

func BenchmarkDecisionLedgerPerPacket(b *testing.B) {
	// Same simulation with the decision ledger attached to a flight
	// recorder: the delta against BenchmarkSimulationPerPacket is the
	// whole cost of recording every dispatch decision, and allocs/op
	// must stay at the amortized-startup level — decision emission
	// itself is allocation-free (pinned by the sim alloc tests, gated
	// here against drift).
	n := b.N
	if n < 100 {
		n = 100
	}
	p := affinity.Params{
		Paradigm:         affinity.Locking,
		Policy:           affinity.MRU,
		Streams:          8,
		Arrival:          affinity.Poisson{PacketsPerSec: 2000},
		Seed:             1,
		MeasuredPackets:  n,
		DecisionRecorder: affinity.NewFlightRecorder(0, 0),
	}
	b.ReportAllocs()
	b.ResetTimer()
	res := affinity.Run(p)
	b.StopTimer()
	if res.DecisionsRecorded == 0 {
		b.Fatal("no decisions recorded")
	}
}
