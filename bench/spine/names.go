package main

// The benchmark's vocabulary. BENCHMARK.json at the repository root
// carries the same names, units and bounds; names_test.go fails when
// the two disagree.

type metricDef struct {
	name, unit string
}

// workloadNames are the gated workloads BENCHMARK.json declares.
var workloadNames = []string{"steady-1k", "churn", "loop"}

// ungatedWorkloads run like the others but are not in BENCHMARK.json:
// steady-1m's figures swing up to twofold with the neighbours' memory
// traffic on this shared host, so no bound can hold on it (see README).
var ungatedWorkloads = []string{"steady-1m"}

// endToEnd metrics are measured with tracing off and reported by every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_msps", "Msps"},
	{"latency_p50_us", "us"},
	{"latency_p90_us", "us"},
	{"rss_p90_mb", "MB"},
}

// perLayer metrics come from a traced run. A workload reports 0 for a
// layer it does not exercise.
var perLayer = []metricDef{
	{"batch_p50_us", "us"},
	{"batch_p99_us", "us"},
	{"react_p50_us", "us"},
	{"react_p90_us", "us"},
	{"cpu_us_per_sample", "us"},
	{"rss_peak_mb", "MB"},
	{"drop_ratio", "ratio"},
	{"fail_ratio", "ratio"},
	{"packet.decode_ns", "ns"},
	{"core.ingest_ns", "ns"},
	{"core.table_lookup_ns", "ns"},
	{"core.table_insert_ns", "ns"},
	{"core.estimator_ns", "ns"},
	{"core.link_util_ns", "ns"},
	{"core.expire_p50_ms", "ms"},
	{"core.expire_max_ms", "ms"},
	{"core.rate_update_ratio", "ratio"},
	{"core.live_flows", "count"},
	{"core.probe_mean", "slots"},
	{"core.rate_err_pct", "%"},
	{"core.batch_p999_us", "us"},
	{"core.batch_max_us", "us"},
	{"routing.resolve_ns", "ns"},
	{"planck.capture_wait_us", "us"},
	{"planck.batch_size", "count"},
	{"vantagelink.hop_p50_us", "us"},
	{"vantagelink.hop_p90_us", "us"},
	{"vantagelink.frames_per_ksample", "count"},
	{"vantagelink.resend_ratio", "ratio"},
	{"vantagelink.gap_ratio", "ratio"},
	{"vantagelink.abandon_ratio", "ratio"},
	{"vantagelink.sync_offset_us", "us"},
	{"agg.report_ns", "ns"},
	{"agg.hold_us", "us"},
	{"te.decide_us", "us"},
	{"routing.commit_us", "us"},
	{"loop.react_p99_us", "us"},
	{"loop.closure_ratio", "ratio"},
	{"steady.closure_ratio", "ratio"},
	{"gen.late_ratio", "ratio"},
	{"env.sleep_overshoot_p50_us", "us"},
	{"env.time_now_ns", "ns"},
	{"env.steal_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}
