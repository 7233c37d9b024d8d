package main

// metricDef declares one metric of the benchmark: its name, unit and which
// direction is better. BENCHMARK.json repeats these tables; the self-test
// fails when the two disagree.
type metricDef struct {
	name, unit, better string
}

// endToEnd lists the metrics a caller of the system would see. Every
// workload emits every one of them on an untraced run.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer lists the metrics of single layers (layer = module of the repo,
// the prefix before the first dot). A traced run emits every one of them on
// every workload; a layer the workload does not execute reads 0.
var perLayer = []metricDef{
	{"graph.freeze_ms", "ms", "lower"},
	{"graph.refreeze_ms", "ms", "lower"},
	{"graph.shards_rebuilt", "count", "lower"},
	{"graph.mutations", "count", "lower"},
	{"graph.self_share", "%", "lower"},

	{"pattern.extend_ms", "ms", "lower"},
	{"pattern.canonical_us", "us", "lower"},
	{"pattern.extensions", "count", "lower"},
	{"pattern.self_share", "%", "lower"},

	{"isomorph.plan_us", "us", "lower"},
	{"isomorph.enumerate_ms", "ms", "lower"},
	{"isomorph.materialize_ms", "ms", "lower"},
	{"isomorph.occurrences", "count", "lower"},
	{"isomorph.ns_per_occurrence", "ns", "lower"},
	{"isomorph.roots", "count", "lower"},
	{"isomorph.shard_drains", "count", "lower"},
	{"isomorph.self_share", "%", "lower"},

	{"core.context_stream_ms", "ms", "lower"},
	{"core.context_full_ms", "ms", "lower"},
	{"core.accumulate_self_ms", "ms", "lower"},
	{"core.delta_open_ms", "ms", "lower"},
	{"core.delta_refresh_ms", "ms", "lower"},
	{"core.delta_refreshes", "count", "lower"},
	{"core.delta_full_rebuilds", "count", "lower"},
	{"core.delta_ball_vertices", "count", "lower"},
	{"core.self_share", "%", "lower"},

	{"hypergraph.edges", "count", "lower"},
	{"hypergraph.vertices", "count", "lower"},
	{"hypergraph.exact_cover_ms", "ms", "lower"},
	{"hypergraph.exact_matching_ms", "ms", "lower"},
	{"hypergraph.greedy_cover_ms", "ms", "lower"},
	{"hypergraph.self_share", "%", "lower"},

	{"lp.fvc_ms", "ms", "lower"},
	{"lp.fies_ms", "ms", "lower"},
	{"lp.self_share", "%", "lower"},

	{"measures.mni_ms", "ms", "lower"},
	{"measures.mi_ms", "ms", "lower"},
	{"measures.mvc_ms", "ms", "lower"},
	{"measures.mvc_approx_ms", "ms", "lower"},
	{"measures.mis_ms", "ms", "lower"},
	{"measures.mies_ms", "ms", "lower"},
	{"measures.numvc_ms", "ms", "lower"},
	{"measures.numies_ms", "ms", "lower"},
	{"measures.exact_share", "%", "higher"},
	{"measures.chain_checks", "count", "higher"},
	{"measures.self_share", "%", "lower"},

	{"miner.mine_ms", "ms", "lower"},
	{"miner.candidates", "count", "lower"},
	{"miner.duplicates", "count", "lower"},
	{"miner.pruned", "count", "lower"},
	{"miner.frequent", "count", "higher"},
	{"miner.duplicate_share", "%", "lower"},
	{"miner.evaluate_replay_ms", "ms", "lower"},
	{"miner.self_ms", "ms", "lower"},
	{"miner.refresh_ms", "ms", "lower"},
	{"miner.tracked_patterns", "count", "lower"},
	{"miner.self_share", "%", "lower"},

	{"store.write_ms", "ms", "lower"},
	{"store.open_ms", "ms", "lower"},
	{"store.bytes_per_edge", "B", "lower"},
	{"store.page_ins", "count", "lower"},
	{"store.evictions", "count", "lower"},
	{"store.resident_share", "%", "higher"},
	{"store.wal_append_us", "us", "lower"},
	{"store.wal_fsync_ms", "ms", "lower"},
	{"store.wal_appends", "count", "lower"},
	{"store.commit_ms", "ms", "lower"},
	{"store.segments_written", "count", "lower"},
	{"store.segments_carried", "count", "higher"},
	{"store.carried_share", "%", "higher"},
	{"store.recover_ms", "ms", "lower"},
	{"store.wal_replayed_batches", "count", "lower"},
	{"store.self_share", "%", "lower"},

	{"support.do_evaluate_ms", "ms", "lower"},
	{"support.do_mine_ms", "ms", "lower"},
	{"support.update_ms", "ms", "lower"},
	{"support.session_open_ms", "ms", "lower"},
	{"support.session_refresh_ms", "ms", "lower"},
	{"support.engine_overhead_us", "us", "lower"},
	{"support.phase_enumerate_ms", "ms", "lower"},
	{"support.phase_aggregate_ms", "ms", "lower"},
	{"support.phase_mine_ms", "ms", "lower"},
	{"support.self_share", "%", "lower"},

	{"server.evaluate_p50_ms", "ms", "lower"},
	{"server.mine_p50_ms", "ms", "lower"},
	{"server.mutate_p50_ms", "ms", "lower"},
	{"server.refresh_p50_ms", "ms", "lower"},
	{"server.transport_us", "us", "lower"},
	{"server.admission_wait_ms", "ms", "lower"},
	{"server.http_errors", "count", "lower"},
	{"server.response_bytes", "B", "lower"},
	{"server.self_share", "%", "lower"},

	{"obs.scrape_ms", "ms", "lower"},
	{"obs.scrape_bytes", "B", "lower"},

	{"harness.samples", "count", "higher"},
	{"harness.op_p90_ms", "ms", "lower"},
	{"harness.op_max_ms", "ms", "lower"},
	{"harness.gc_cycles_per_op", "count", "lower"},
	{"harness.gc_pause_ms_per_op", "ms", "lower"},
	{"harness.trace_overhead_pct", "%", "lower"},
	{"harness.traced_op_ms", "ms", "lower"},
	{"harness.box_speed_pct", "%", "higher"},
	{"harness.self_share", "%", "lower"},
}

// layers lists the layer names in reporting order; each has a
// "<layer>.self_share" metric except obs, which only ever runs as a probe.
var layers = []string{"graph", "pattern", "isomorph", "core", "hypergraph", "lp", "measures", "miner", "store", "support", "server"}
