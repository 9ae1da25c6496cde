package main

// metricDef names one reported metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user regenerating an artifact sees, all host
// measurements of the untraced child processes.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},         // Engine.Run wall time summed over the workload's specs
	{"cpu_s", "s", "lower"},          // user + sys CPU time of the child process
	{"setup_s", "s", "lower"},        // program synthesis before the first artifact call
	{"peak_rss_mib", "MiB", "lower"}, // the child's ru_maxrss
}

// perLayer are the traced run's metrics, named <module>.<metric>. Each one
// comes from the workload that exercises its layer (see README.md).
var perLayer = []metricDef{
	{"bench.trace_overhead_pct.cold-studies", "%", "lower"},
	{"bench.trace_overhead_pct.fig8", "%", "lower"},
	{"bench.trace_overhead_pct.pipeline-runs", "%", "lower"},
	{"bench.trace_overhead_pct.trace-artifacts", "%", "lower"},
	{"workload.build_ms_per_program", "ms", "lower"},

	// fig8
	{"fault.campaign_s", "s", "lower"},
	{"fault.pilot_s", "s", "lower"},
	{"fault.inject_phase_s", "s", "lower"},
	{"fault.pool_busy_frac", "ratio", "higher"},
	{"fault.inject_us_p50", "us", "lower"},
	{"fault.inject_us_p99", "us", "lower"},
	{"fault.inject_s.itr_mask", "s", "lower"},
	{"fault.inject_s.itr_sdc_r", "s", "lower"},
	{"fault.inject_s.other", "s", "lower"},
	{"fault.heap_peak_mib", "MiB", "lower"},
	{"fault.cycles_per_injection", "cycles", "lower"},
	{"fault.cycles_per_injection.itr_mask", "cycles", "lower"},
	{"fault.cycles_per_injection.itr_sdc_r", "cycles", "lower"},
	{"fault.cycles_per_injection.other", "cycles", "lower"},
	{"fault.decided_early_frac", "ratio", "higher"},
	{"fault.verify_forked_frac", "ratio", "higher"},
	{"fault.proof_fallbacks", "count", "lower"},
	{"fault.paper_err_pp", "pp", "lower"},
	{"fault.pilot_overhead_s", "s", "lower"},
	{"pipeline.straight_s", "s", "lower"},
	{"pipeline.snapshot_us", "us", "lower"},
	{"pipeline.restore_us", "us", "lower"},
	{"pipeline.snapshot_captures", "count", "lower"},
	{"pipeline.snapshot_restores", "count", "lower"},
	{"pipeline.pages_copied", "count", "lower"},

	// trace-artifacts
	{"report.char_s", "s", "lower"},
	{"report.sweep_s", "s", "lower"},
	{"report.figure9_s", "s", "lower"},
	{"report.pool_busy_frac", "ratio", "higher"},
	{"trace.ns_per_inst", "ns", "lower"},
	{"core.simbank_ns_per_event", "ns", "lower"},
	{"core.events_replayed", "count", "lower"},
	{"workload.stream_gens", "count", "lower"},
	{"workload.memo_mib", "MiB", "lower"},

	// pipeline-runs
	{"pipeline.ns_per_cycle.gcc-off", "ns", "lower"},
	{"pipeline.ns_per_cycle.gcc-itr", "ns", "lower"},
	{"pipeline.ns_per_cycle.gcc-reptfd", "ns", "lower"},
	{"pipeline.ns_per_cycle.gcc-dme", "ns", "lower"},
	{"pipeline.ns_per_cycle.swim-itr", "ns", "lower"},
	{"detect.overhead_pct.itr", "%", "lower"},
	{"detect.overhead_pct.reptfd", "%", "lower"},
	{"detect.overhead_pct.dme", "%", "lower"},
	{"pipeline.new_us", "us", "lower"},
	{"pipeline.ipc.gcc-itr", "ipc", "higher"},
	{"report.perf_s", "s", "lower"},

	// cold-studies
	{"fault.ckpt_cycles_per_injection", "cycles", "lower"},
	{"fault.ckpt_inject_us_p50", "us", "lower"},
	{"fault.pc_ms_per_injection", "ms", "lower"},
	{"fault.cache_ms_per_injection", "ms", "lower"},
	{"fault.rename_ms_per_injection", "ms", "lower"},
	{"fault.runone_ms", "ms", "lower"},
}
