package bench

// Metric is a measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Def names a metric, its unit and which direction is better.
type Def struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// EndToEnd lists the metrics a user of the simulator sees, measured
// with tracing off: set-up time, the fastest timed op's host time, event
// rate and CPU time, and a worker's peak RSS after its first op.
// BENCHMARK.json lists the same metrics with their regression bounds.
var EndToEnd = []Def{
	{"setup_s", "s", "lower"},
	{"op_min_s", "s", "lower"},
	{"events_per_s", "events/s", "higher"},
	{"cpu_s_per_op", "s", "lower"},
	{"max_rss_mb", "MiB", "lower"},
}

// PerLayer lists the traced run's metrics, grouped by the layer they
// measure (see README.md for which end-to-end metric each should move).
var PerLayer = []Def{
	{"exp.critical_s", "s", "lower"},
	{"exp.busy_s", "s", "lower"},
	{"exp.render_ms", "ms", "lower"},
	{"exp.check_ms", "ms", "lower"},
	{"trace.overhead", "ratio", "lower"},

	{"pool.submissions", "count", "lower"},
	{"pool.hit_ratio", "ratio", "higher"},
	{"pool.cachekey_us", "us", "lower"},
	{"sim.run_fixed_us", "us", "lower"},

	{"sim.host_ns_per_pkt", "ns", "lower"},
	{"sim.phase_ns.arrival", "ns", "lower"},
	{"sim.phase_ns.enqueue", "ns", "lower"},
	{"sim.phase_ns.dispatch", "ns", "lower"},
	{"sim.phase_ns.exec_start", "ns", "lower"},
	{"sim.phase_ns.exec_end", "ns", "lower"},
	{"sim.phase_ns.proc_busy", "ns", "lower"},
	{"sim.phase_ns.proc_idle", "ns", "lower"},
	{"sim.phase_ns.gauge", "ns", "lower"},
	{"sim.phase_ns.other", "ns", "lower"},

	{"des.events_per_op", "count", "lower"},
	{"des.heap_mean", "count", "lower"},
	{"des.event_ns", "ns", "lower"},

	{"core.cold_frac", "ratio", "lower"},
	{"core.exec_ns", "ns", "lower"},

	{"sched.decision_ns", "ns", "lower"},
	{"sched.affinity_hit_ratio", "ratio", "higher"},
	{"sched.migrations_per_kpkt", "1/kpkt", "lower"},
	{"sched.reordered_per_kpkt", "1/kpkt", "lower"},

	{"traffic.draw_ns", "ns", "lower"},
	{"workload.generate_us", "us", "lower"},

	{"live.event_ns", "ns", "lower"},
	{"live.slowdown", "ratio", "lower"},
	{"live.delay_rel_err", "ratio", "lower"},

	{"policysearch.search_s", "s", "lower"},
	{"policysearch.evaluated", "count", "lower"},
	{"policysearch.topk_s", "s", "lower"},

	{"obs.record_ns.csv", "ns", "lower"},
	{"obs.record_ns.chrome", "ns", "lower"},
	{"obs.record_ns.metrics", "ns", "lower"},
	{"obs.record_ns.timeseries", "ns", "lower"},
	{"obs.record_ns.ledger", "ns", "lower"},
	{"obs.allocs_per_event.csv", "count", "lower"},
	{"obs.allocs_per_event.chrome", "count", "lower"},

	{"go.allocs_per_op", "count", "lower"},
	{"go.alloc_mb_per_op", "MiB", "lower"},
	{"go.gc_per_op", "count", "lower"},
	{"go.gc_cpu_frac", "ratio", "lower"},
}
