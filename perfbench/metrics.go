package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (a test keeps the two in step).
type metricDef struct {
	name, unit, better string
	kind               metricKind
}

type metricKind int

const (
	kindTime  metricKind = iota // calibrated median of timed samples
	kindMean                    // exact count per item, averaged
	kindValue                   // unitless ratio, median of samples
	kindBench                   // computed by the harness itself
)

// endToEnd are the metrics a user of the system sees; they come only from
// untraced runs and every timing among them is calibrated.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "throughput_per_s", unit: "1/s", better: "higher"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "latency_p90_ms", unit: "ms", better: "lower"},
	{name: "peak_rss_mb", unit: "MiB", better: "lower"},
}

// perLayer are the traced run's metrics, each timed or counted around a
// call into a public function of the program. A workload that never
// makes a call reports 0 for its metrics (README lists which apply).
var perLayer = []metricDef{
	// analyze-mix
	{"service.handler_hit_us", "us", "lower", kindTime},
	{"service.handler_miss_us", "us", "lower", kindTime},
	{"service.canonicalize_us", "us", "lower", kindTime},
	{"service.cache_key_us", "us", "lower", kindTime},
	{"service.self_hit_us", "us", "lower", kindTime},
	{"core.report_pdp_us", "us", "lower", kindTime},
	{"core.report_ttp_us", "us", "lower", kindTime},
	{"rma.rta_us", "us", "lower", kindTime},
	{"core.batch_us", "us", "lower", kindTime},
	{"service.encode_us", "us", "lower", kindTime},
	{"service.allocs_per_hit", "count", "lower", kindMean},
	{"service.allocs_per_miss", "count", "lower", kindMean},
	{"service.hit_ratio", "ratio", "higher", kindMean},
	// ring-admit
	{"service.ring_add_us", "us", "lower", kindTime},
	{"service.ring_modify_us", "us", "lower", kindTime},
	{"service.ring_remove_us", "us", "lower", kindTime},
	{"service.allocs_per_edit", "count", "lower", kindMean},
	{"ringstate.reprobed_per_edit", "count", "lower", kindMean},
	{"ringstate.full_reprobe_share", "ratio", "lower", kindMean},
	{"ringstate.speedup_vs_full", "ratio", "higher", kindValue},
	// fig1-sweep
	{"message.draw_us", "us", "lower", kindTime},
	{"breakdown.saturate_mod_us", "us", "lower", kindTime},
	{"breakdown.saturate_std_us", "us", "lower", kindTime},
	{"breakdown.saturate_ttp_us", "us", "lower", kindTime},
	{"breakdown.allocs_per_saturation", "count", "lower", kindMean},
	{"core.probes_per_saturation", "count", "lower", kindMean},
	{"core.probe_us", "us", "lower", kindTime},
	{"breakdown.self_us", "us", "lower", kindTime},
	// token-sim
	{"tokensim.pdp_run_us", "us", "lower", kindTime},
	{"tokensim.ttp_run_us", "us", "lower", kindTime},
	{"tokensim.res_run_us", "us", "lower", kindTime},
	{"sim.pdp_events_per_run", "count", "lower", kindMean},
	{"sim.ttp_events_per_run", "count", "lower", kindMean},
	{"sim.res_events_per_run", "count", "lower", kindMean},
	{"sim.pdp_ns_per_event", "ns", "lower", kindTime},
	{"sim.ttp_ns_per_event", "ns", "lower", kindTime},
	{"sim.res_ns_per_event", "ns", "lower", kindTime},
	{"tokensim.pdp_allocs_per_event", "count", "lower", kindMean},
	{"tokensim.ttp_allocs_per_event", "count", "lower", kindMean},
	{"tokensim.res_allocs_per_event", "count", "lower", kindMean},
	// every workload: these explain a run rather than rank it
	{"bench.calibration_ms", "ms", "lower", kindBench},
	{"bench.tracing_overhead", "ratio", "lower", kindBench},
	{"host.steal_share", "ratio", "lower", kindBench},
}
