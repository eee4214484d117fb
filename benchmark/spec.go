package main

// This file is the benchmark's catalog: the four workloads, the sixteen
// end-to-end metrics with their bounds, and the per-layer metric names.
// BENCHMARK.json at the repository root carries the subset the driver
// gates on; TestCatalogMatchesBenchmarkJSON keeps the two in step.

// Workload names are fixed; later issues refer to them.
const (
	wIngest  = "ingest-disk"
	wPublish = "publish-recover"
	wMixed   = "mixed-steady"
	wHeal    = "heal-after-loss"
)

type workloadDef struct {
	Name string
	Why  string
	// Primary is the end-to-end latency whose traced ÷ untraced ratio is
	// reported as driver.trace_overhead_ratio.
	Primary string
	run     func(*pass) error
}

var workloads = []workloadDef{
	{wIngest, "durable write path: group-commit wait, fsync and sequential fan-out dominate, coding is idle; reopen and cold read-back reuse the same engines", "put_p50_ms", runIngest},
	{wPublish, "coding path: core, gfmat and gf256 dominate, diskstore is absent, the wire moves bulk; encode and decode share one cycle", "recover_p50_ms", runPublish},
	{wMixed, "per-op path: framing, pooling, CRC, shard lookup and server dispatch dominate; coding and disk are negligible", "get_p50_ms", runMixed},
	{wHeal, "the paper's scenario: node loss, decode from survivors, repair and migration; the only workload running repair, mover and Recombine", "heal_s", runHeal},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// unbounded marks a reported metric that carries no regression bound.
const unbounded = 0

// metricDef describes one end-to-end metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which the metric may
	// worsen before it counts as a regression; unbounded for a metric
	// that is reported but too unsteady on a shared two-core box to gate
	// (README, "Bounds and what was demoted").
	Bound float64
	// On lists the workloads that measure the metric; nil means all four.
	// Only metrics measured on every workload can sit in BENCHMARK.json's
	// end_to_end list (the driver wants every listed metric from every
	// run); the others are printed with the traced pass in driver mode
	// and gated by this program's own -repeat and -compare.
	On []string
}

func (m metricDef) on(workload string) bool {
	if m.On == nil {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, nil},
	{"put_p50_ms", "ms", "lower", 0.25, nil},
	{"get_p50_ms", "ms", "lower", 0.25, nil},
	{"recover_l0_p50_ms", "ms", "lower", 0.25, nil},
	{"recover_p50_ms", "ms", "lower", 0.25, nil},
	{"ops_per_s", "1/s", "higher", 0.25, nil},
	{"stored_bytes_per_user_byte", "ratio", "lower", 0.02, nil},
	{"put_p99_ms", "ms", "lower", unbounded, nil},
	{"get_p99_ms", "ms", "lower", unbounded, []string{wMixed}},
	{"publish_p50_ms", "ms", "lower", 0.25, []string{wPublish, wHeal}},
	{"reopen_s", "s", "lower", 0.25, []string{wIngest}},
	{"readback_mb_per_s", "MB/s", "higher", 0.25, []string{wIngest}},
	{"levels_after_loss", "levels", "higher", 0.05, []string{wHeal}},
	{"heal_s", "s", "lower", 0.25, []string{wHeal}},
	{"heal_wire_bytes_per_block", "B", "lower", 0.15, []string{wHeal}},
	{"migrate_s", "s", "lower", 0.25, []string{wHeal}},
}

func endToEndByName(name string) *metricDef {
	for i := range endToEnd {
		if endToEnd[i].Name == name {
			return &endToEnd[i]
		}
	}
	return nil
}

// layerDef names one per-layer metric. A layer idle on a workload
// reports 0 there.
type layerDef struct{ Name, Unit string }

var perLayer = []layerDef{
	{"core.encode_ms_per_block", "ms"},
	{"core.encode_busy_s", "s"},
	{"core.decode_add_us_per_block", "us"},
	{"core.decode_busy_s", "s"},
	{"core.decode_overhead_blocks", "ratio"},
	{"core.marshal_ns_per_block", "ns"},
	{"core.unmarshal_ns_per_block", "ns"},
	{"core.recombine_us_per_block", "us"},
	{"gf256.addmul_gb_per_s", "GB/s"},
	{"gfmat.eliminate_ms", "ms"},
	{"gfmat.rank_us", "us"},
	{"store.put_p50_ms", "ms"},
	{"store.put_p99_ms", "ms"},
	{"store.put_l0_p50_ms", "ms"},
	{"store.put_llast_p50_ms", "ms"},
	{"store.copies_per_put", "ratio"},
	{"store.collect_p50_ms", "ms"},
	{"store.collect_p99_ms", "ms"},
	{"store.collect_dup_ratio", "ratio"},
	{"store.blocks_per_collect", "count"},
	{"store.wire_self_ms_per_op", "ms"},
	{"store.server_request_p50_ms", "ms"},
	{"store.server_request_p99_ms", "ms"},
	{"store.wire_bytes_out_per_op", "B"},
	{"store.wire_bytes_in_per_op", "B"},
	{"store.dials_per_kop", "count"},
	{"store.pool_hit_ratio", "ratio"},
	{"store.retries_per_kop", "count"},
	{"store.backoff_ms_total", "ms"},
	{"store.op_errors", "count"},
	{"placed.shard_lookup_us", "us"},
	{"engine.put_p50_ms", "ms"},
	{"engine.put_p99_ms", "ms"},
	{"engine.put_busy_s", "s"},
	{"engine.get_p50_ms", "ms"},
	{"engine.get_busy_s", "s"},
	{"engine.get_blocks_per_call", "count"},
	{"diskstore.put_wait_p50_ms", "ms"},
	{"diskstore.put_wait_p99_ms", "ms"},
	{"diskstore.fsync_p50_ms", "ms"},
	{"diskstore.fsync_p99_ms", "ms"},
	{"diskstore.fsyncs_per_kput", "count"},
	{"diskstore.batch_blocks_mean", "count"},
	{"diskstore.write_bytes_per_user_byte", "ratio"},
	{"diskstore.segments", "count"},
	{"diskstore.open_ms", "ms"},
	{"diskstore.replay_blocks_per_s", "1/s"},
	{"diskstore.torn_bytes", "B"},
	{"diskstore.cache_hit_ratio", "ratio"},
	{"diskstore.cache_evictions", "count"},
	{"repair.audit_ms", "ms"},
	{"repair.round_ms", "ms"},
	{"repair.rounds_to_heal", "count"},
	{"repair.blocks_regenerated", "count"},
	{"repair.bytes_collected_per_block", "B"},
	{"repair.bytes_placed_per_block", "B"},
	{"repair.copy_fallback_ratio", "ratio"},
	{"mover.round_ms", "ms"},
	{"mover.rounds_to_converge", "count"},
	{"mover.objects_migrated", "count"},
	{"mover.bytes_collected_per_block", "B"},
	{"mover.blocks_reclaimed", "count"},
	{"mover.throttle_wait_ms", "ms"},
	{"driver.sched_lag_p99_ms", "ms"},
	{"driver.offered_ops_per_s", "1/s"},
	{"driver.overload_dropped", "count"},
	{"driver.peak_heap_mb", "MB"},
	{"driver.gc_pause_ms_total", "ms"},
	{"driver.trace_overhead_ratio", "ratio"},
}

// gated reports whether the metric is bounded and measured by every
// workload, and so belongs to BENCHMARK.json's end_to_end list.
func (m metricDef) gated() bool { return m.On == nil && m.Bound != unbounded }
