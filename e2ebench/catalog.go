package main

// metricDef names a reported metric; BENCHMARK.json lists the same
// names, units and directions.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of the system sees, reported with --trace 0
// by every workload. An operation is a committed transaction on oo7 and
// kv and a restart (merge plus recover) on recover.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"op_ms_p50", "ms", "lower"},
	{"op_ms_tail", "ms", "lower"},
	{"handoff_ms_p50", "ms", "lower"},
	{"handoff_ms_tail", "ms", "lower"},
	{"stored_bytes_per_user_byte", "B/B", "lower"},
	{"wire_bytes_per_tx", "B", "lower"},
	{"setup_s", "s", "lower"},
	{"mem_mb", "MB", "lower"},
}

// perLayer is the traced run's breakdown, reported with --trace 1 by
// every workload; a layer a workload does not exercise reads 0. "per_tx"
// means per operation.
var perLayer = []metricDef{
	{"coherency.acquire_us_p50", "us", "lower"},
	{"coherency.acquire_us_p99", "us", "lower"},
	{"coherency.commit_us_p50", "us", "lower"},
	{"coherency.commit_us_p99", "us", "lower"},
	{"coherency.commit_self_us_p50", "us", "lower"},
	{"coherency.recv_update_us_p50", "us", "lower"},
	{"coherency.recv_update_us_p99", "us", "lower"},
	{"coherency.records_stale", "count", "lower"},
	{"coherency.send_window_stalls", "count", "lower"},
	{"rvm.set_range_calls_per_tx", "count", "lower"},
	{"rvm.detect_us_per_tx", "us", "lower"},
	{"rvm.recover_ms_p50", "ms", "lower"},
	{"rvm.recover_records", "count", "lower"},
	{"oo7.traverse_us_p50", "us", "lower"},
	{"wal.appends_per_tx", "count", "lower"},
	{"wal.append_bytes_per_tx", "B", "lower"},
	{"wal.append_us_p50", "us", "lower"},
	{"wal.append_us_p99", "us", "lower"},
	{"wal.syncs_per_tx", "count", "lower"},
	{"wal.sync_us_p50", "us", "lower"},
	{"wal.sync_us_p99", "us", "lower"},
	{"wal.records_per_sync", "count", "higher"},
	{"wal.read_mb", "MB", "lower"},
	{"wal.read_ms", "ms", "lower"},
	{"merge.ms_p50", "ms", "lower"},
	{"merge.records", "count", "lower"},
	{"netproto.frames_per_tx", "count", "lower"},
	{"netproto.bytes_per_tx", "B", "lower"},
	{"netproto.send_us_p50", "us", "lower"},
	{"netproto.send_us_p99", "us", "lower"},
	{"lockmgr.recv_us_p50", "us", "lower"},
	{"lockmgr.recv_us_p99", "us", "lower"},
	{"lockmgr.remote_msgs_per_tx", "count", "lower"},
	{"lockmgr.token_pass_retries", "count", "lower"},
	{"parapply.records_applied_per_tx", "count", "lower"},
	{"parapply.apply_us_p99", "us", "lower"},
	{"parapply.worker_busy_share", "share", "lower"},
	{"parapply.backpressure", "count", "lower"},
	{"store.requests_per_tx", "count", "lower"},
	{"store.serve_write_us_p99", "us", "lower"},
	{"store.load_region_ms", "ms", "lower"},
	{"go.alloc_bytes_per_tx", "B", "lower"},
	{"go.gc_cpu_share", "share", "lower"},
	{"coherency.self_ms", "ms", "lower"},
	{"rvm.self_ms", "ms", "lower"},
	{"app.self_ms", "ms", "lower"},
	{"wal.self_ms", "ms", "lower"},
	{"netproto.self_ms", "ms", "lower"},
	{"merge.self_ms", "ms", "lower"},
	{"bench.self_ms", "ms", "lower"},
	{"trace.self_sum_ms", "ms", "lower"},
	{"trace.op_ms_p50", "ms", "lower"},
	{"trace.untraced_op_ms_p50", "ms", "lower"},
	{"trace.overhead_ms", "ms", "lower"},
}

// completePerLayer orders a traced run's metrics as the catalog does and
// reports 0 for every layer metric the workload does not exercise.
func completePerLayer(ms []metric) []metric {
	got := map[string]metric{}
	for _, m := range ms {
		got[m.name] = m
	}
	out := make([]metric, 0, len(perLayer))
	for _, d := range perLayer {
		m, ok := got[d.name]
		if !ok {
			m = metric{name: d.name, unit: d.unit}
		}
		out = append(out, m)
	}
	return out
}
