package main

import (
	"math"
	"sort"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd is what a user of the engine sees. Every listed metric is
// reported on every workload (see README.md for what each one times on
// which workload), so the list matches BENCHMARK.json's end_to_end.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"commit_p50_us", "us"},
	{"read_p50_us", "us"},
	{"reopen_s", "s"},
	{"space_amp", "ratio"},
}

// perLayer is reported by the traced run and matches BENCHMARK.json's
// per_layer. It opens with the client-side timings that have no bound:
// the p99s, which swing with the host's CPU steal by more than any
// allowed bound, and the scan and as-of latencies, which not every
// workload has. Counters are deltas over the untraced timed phase; call
// times and self times come from the traced phase's spans. A layer a
// workload does not touch reports 0.
var perLayer = []metricSpec{
	{"commit_p99_us", "us"},
	{"read_p99_us", "us"},
	{"scan_p50_us", "us"},
	{"scan_p99_us", "us"},
	{"asof_p50_us", "us"},
	{"asof_p99_us", "us"},
	{"failed_ratio", "ratio"},
	{"client.attempted", "count"},
	{"client.failed", "count"},

	{"core.search_us", "us"},
	{"core.update_us", "us"},
	{"core.multiget_us", "us"},
	{"core.rangescan_us", "us"},
	{"core.insert_us", "us"},
	{"core.opt_hit_ratio", "ratio"},
	{"core.opt_hits", "count"},
	{"core.opt_retries", "count"},
	{"core.opt_fallbacks", "count"},
	{"core.restarts_per_op", "1/op"},
	{"core.restarts", "count"},
	{"core.side_traversals_per_op", "1/op"},
	{"core.side_traversals", "count"},
	{"core.leaf_splits", "count"},
	{"core.posts_performed", "count"},
	{"core.leaf_visits_saved_per_multiget", "1/op"},
	{"core.leaf_visits_saved", "count"},
	{"core.multigets", "count"},

	{"tsb.put_us", "us"},
	{"tsb.snapshot_get_us", "us"},
	{"tsb.scan_asof_us", "us"},
	{"tsb.time_splits", "count"},
	{"tsb.key_splits", "count"},
	{"tsb.soft_overflows", "count"},
	{"tsb.hist_walks_per_asof", "1/op"},
	{"tsb.hist_walks", "count"},
	{"tsb.asof_scans", "count"},
	{"tsb.gc_retired_nodes", "count"},
	{"tsb.history_nodes", "count"},
	{"tsb.current_nodes", "count"},

	{"txn.commit_p50_us", "us"},
	{"txn.commit_p99_us", "us"},
	{"txn.commits", "count"},
	{"txn.snapshot_begin_us", "us"},
	{"txn.version_lag", "ticks"},

	{"lock.grants_per_txn", "1/txn"},
	{"lock.waits_per_txn", "1/txn"},
	{"lock.deadlocks_per_txn", "1/txn"},
	{"lock.grants", "count"},
	{"lock.waits", "count"},
	{"lock.deadlocks", "count"},

	{"wal.appends_per_commit", "1/commit"},
	{"wal.commits_per_round", "1/round"},
	{"wal.persists_per_commit", "1/commit"},
	{"wal.persists_per_op", "1/op"},
	{"wal.bytes_per_commit", "B/commit"},
	{"wal.write_overlap_ratio", "ratio"},
	{"wal.appends", "count"},
	{"wal.group_requests", "count"},
	{"wal.group_rounds", "count"},
	{"wal.persists", "count"},
	{"wal.bytes_persisted", "B"},
	{"wal.write_rounds", "count"},
	{"wal.overlaps", "count"},
	{"wal.segments_recycled", "count"},

	{"storage.hit_ratio", "ratio"},
	{"storage.hits", "count"},
	{"storage.misses", "count"},
	{"storage.misses_per_op", "1/op"},
	{"storage.evictions", "count"},
	{"storage.evictions_per_op", "1/op"},
	{"storage.prefetch_hit_ratio", "ratio"},
	{"storage.prefetch_wasted_ratio", "ratio"},
	{"storage.prefetch_issued", "count"},
	{"storage.prefetch_hits", "count"},
	{"storage.prefetch_wasted", "count"},
	{"storage.pages_flushed", "count"},
	{"storage.page_bytes_per_user_byte", "ratio"},
	{"storage.page_bytes_written", "B"},
	{"storage.user_bytes_written", "B"},
	{"storage.allocated_pages", "count"},

	{"engine.checkpoint_ms_p50", "ms"},
	{"engine.checkpoint_ms_max", "ms"},
	{"engine.checkpoints", "count"},
	{"engine.close_s", "s"},
	{"engine.open_s", "s"},
	{"engine.heap_after_run_mb", "MiB"},
	{"engine.heap_after_restart_mb", "MiB"},

	{"recovery.analyze_redo_s", "s"},
	{"recovery.undo_s", "s"},
	{"recovery.analyzed_records", "count"},
	{"recovery.redone_records", "count"},
	{"recovery.fetch_skipped_pages", "count"},

	{"trace.client_self_us_per_op", "us"},
	{"trace.txn_self_us_per_op", "us"},
	{"trace.core_self_us_per_op", "us"},
	{"trace.tsb_self_us_per_op", "us"},
	{"trace.engine_self_us_per_op", "us"},
	{"trace.spans", "count"},
	{"trace.ops_per_s_delta_pct", "%"},
	{"trace.commit_p50_delta_pct", "%"},
	{"trace.read_p50_delta_pct", "%"},
}

// metrics collects named values in report order.
type metrics struct {
	order []string
	vals  map[string]float64
	units map[string]string
}

func newMetrics() *metrics {
	return &metrics{vals: make(map[string]float64), units: make(map[string]string)}
}

func (m *metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if _, ok := m.vals[name]; !ok {
		m.order = append(m.order, name)
	}
	m.vals[name] = v
	m.units[name] = unit
}

// ratio returns num/den, or 0 with no base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// sortedNs sorts and returns a merged copy of latency samples.
func sortedNs(parts ...[]int64) []int64 {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]int64, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile is the nearest-rank q-quantile of sorted samples, 0 when empty.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

// beyond is how many samples lie above the q-quantile's rank.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

func medianF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
