package main

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same names and units; TestMetricsMatchBenchmarkJSON
// keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. "Cold" operations compute a result the process has not
// served before; "warm" operations repeat one it has (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"heap_live_mb", "MB"},
	{"cold_p50_ms", "ms"},
	{"cold_p75_ms", "ms"},
	{"warm_p50_ms", "ms"},
	{"warm_p75_ms", "ms"},
}

// perLayer are the traced run's metrics. A layer the workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"sim.cpu_share", "ratio"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"netsim.cpu_share", "ratio"},
	{"netsim.pkt_hops", "count"},
	{"netsim.ns_per_hop", "ns"},
	{"netsim.tail_drops", "count"},
	{"netsim.queue_max_pkts", "count"},
	{"aqm.cpu_share", "ratio"},
	{"tcp.cpu_share", "ratio"},
	{"tcp.segs_sent", "count"},
	{"tcp.acks_sent", "count"},
	{"tcp.retrans_segs", "count"},
	{"tcp.timeouts", "count"},
	{"cc.cpu_share", "ratio"},
	{"core.cpu_share", "ratio"},
	{"core.probe_rounds", "count"},
	{"core.queue_reductions", "count"},
	{"hybrid.cpu_share", "ratio"},
	{"hybrid.flows", "count"},
	{"hybrid.peak_live", "count"},
	{"hybrid.arena_cap", "count"},
	{"hybrid.build_ms", "ms"},
	{"hybrid.heap_b_per_conn", "B"},
	{"httpapp.cpu_share", "ratio"},
	{"httpapp.responses", "count"},
	{"httpapp.pending", "count"},
	{"metrics.cpu_share", "ratio"},
	{"experiment.cpu_share", "ratio"},
	{"experiment.cells", "count"},
	{"experiment.parallel_eff", "ratio"},
	{"cellcache.cpu_share", "ratio"},
	{"cellcache.hits", "count"},
	{"cellcache.misses", "count"},
	{"cellcache.hit_ratio", "ratio"},
	{"cellcache.cells_stored", "count"},
	{"service.cpu_share", "ratio"},
	{"service.simulations", "count"},
	{"service.run_cache_hits", "count"},
	{"service.jobs", "count"},
	{"service.submit_p50_ms", "ms"},
	{"service.wait_p50_ms", "ms"},
	{"service.result_p50_ms", "ms"},
	{"runtime.gc_share", "ratio"},
	{"runtime.barrier_share", "ratio"},
	{"runtime.alloc_share", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.allocs", "count"},
	{"other.cpu_share", "ratio"},
	{"bench.trace_overhead", "ratio"},
}

// zeroLayers presets every per-layer metric to 0 so a layer the workload
// does not exercise is reported as such.
func (b *bench) zeroLayers() {
	for _, d := range perLayer {
		b.metrics[d.name] = 0
	}
}
