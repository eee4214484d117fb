package main

import (
	"runtime"
	"strings"

	"repro/internal/metrics"
)

// layerMetrics derives every per-layer metric of a traced pass from its
// three outside sources — the spans, the engine decorator and counting
// dialer, and the registry snapshot — plus the kernel probes. A layer
// the workload never entered reports 0. primaryRatio is the traced ÷
// untraced value of the workload's primary latency.
func layerMetrics(p *pass, primaryRatio float64) map[string]metric {
	v := make(map[string]float64, len(perLayer))
	n := make(map[string]int)

	// Spans, grouped by name.
	p.in.tr.mu.Lock()
	spans := append([]span(nil), p.in.tr.spans...)
	p.in.tr.mu.Unlock()
	self := selfTimes(spans)
	durMs := make(map[string]*samples)
	work := make(map[string]int)
	selfMs := make(map[string]float64)
	var putL0, putLast samples
	lastLevel, matchedEnginePuts := 0, 0
	for _, s := range spans {
		if s.Name == "store.put" && s.N > lastLevel {
			lastLevel = s.N
		}
	}
	for i, s := range spans {
		if durMs[s.Name] == nil {
			durMs[s.Name] = &samples{}
		}
		d := float64(s.End-s.Start) / 1e6
		durMs[s.Name].add(d)
		work[s.Name] += s.N
		selfMs[s.Name] += float64(self[i]) / 1e6
		switch {
		case s.Name == "store.put" && s.N == 0:
			putL0.add(d)
		case s.Name == "store.put" && s.N == lastLevel:
			putLast.add(d)
		case s.Name == "engine.put" && s.Op != 0:
			matchedEnginePuts++
		}
	}
	sum := func(name string) float64 { // total ms
		total := 0.0
		if s := durMs[name]; s != nil {
			for _, d := range s.v {
				total += d
			}
		}
		return total
	}
	count := func(name string) int {
		if durMs[name] == nil {
			return 0
		}
		return len(durMs[name].v)
	}
	quant := func(key string, s *samples, q float64) {
		if s == nil {
			return
		}
		sorted := s.sorted()
		if q == 0.5 {
			v[key] = quantile(sorted, q)
		} else {
			v[key], _ = tailQuantile(sorted, q)
		}
		n[key] = len(sorted)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	v["core.encode_busy_s"] = sum("core.encode") / 1e3
	v["core.encode_ms_per_block"] = ratio(sum("core.encode"), float64(work["core.encode"]))
	n["core.encode_ms_per_block"] = work["core.encode"]
	v["core.decode_busy_s"] = sum("core.decode") / 1e3
	v["core.decode_add_us_per_block"] = ratio(sum("core.decode")*1e3, float64(work["core.decode"]))
	n["core.decode_add_us_per_block"] = work["core.decode"]
	v["core.decode_overhead_blocks"] = mean(p.overhead.sorted())
	n["core.decode_overhead_blocks"] = p.overhead.n()

	quant("store.put_p50_ms", durMs["store.put"], 0.5)
	quant("store.put_p99_ms", durMs["store.put"], 0.99)
	quant("store.put_l0_p50_ms", &putL0, 0.5)
	quant("store.put_llast_p50_ms", &putLast, 0.5)
	v["store.copies_per_put"] = ratio(float64(matchedEnginePuts), float64(count("store.put")))
	quant("store.collect_p50_ms", durMs["store.collect"], 0.5)
	quant("store.collect_p99_ms", durMs["store.collect"], 0.99)
	v["store.blocks_per_collect"] = ratio(float64(p.collectBlocks.Load()), float64(p.collects.Load()))
	storeCalls := float64(count("store.put") + count("store.collect"))
	v["store.wire_self_ms_per_op"] = ratio(selfMs["store.put"]+selfMs["store.collect"], storeCalls)
	n["store.wire_self_ms_per_op"] = int(storeCalls)

	// Registry series that already exist.
	snap := p.in.reg.Snapshot()
	ctr := func(base string) float64 { // summed over label sets
		total := 0.0
		for _, c := range snap.Counters {
			if c.Name == base || strings.HasPrefix(c.Name, base+"{") {
				total += float64(c.Value)
			}
		}
		return total
	}
	hist := func(name string) metrics.HistogramSnapshot {
		for _, h := range snap.Histograms {
			if h.Name == name {
				return h.HistogramSnapshot
			}
		}
		return metrics.HistogramSnapshot{}
	}
	histMs := func(p50, p99, name string) {
		h := hist(name)
		v[p50], v[p99] = float64(h.P50)/1e6, float64(h.P99)/1e6
		n[p50], n[p99] = int(h.Count), int(h.Count)
	}
	ops := float64(p.frontOps.Load())
	dups := ctr("store_replicated_collect_dup_blocks_total")
	v["store.collect_dup_ratio"] = ratio(dups, dups+ctr("store_replicated_collect_blocks_total"))
	histMs("store.server_request_p50_ms", "store.server_request_p99_ms", "store_server_request_ns")
	v["store.wire_bytes_out_per_op"] = ratio(float64(p.dialer.out.Load()-p.wire0.out), ops)
	v["store.wire_bytes_in_per_op"] = ratio(float64(p.dialer.in.Load()-p.wire0.in), ops)
	v["store.dials_per_kop"] = ratio(float64(p.dialer.dials.Load()-p.wire0.dials)*1e3, ops)
	hits := ctr("store_client_pool_hits_total")
	v["store.pool_hit_ratio"] = ratio(hits, hits+ctr("store_client_pool_misses_total"))
	v["store.retries_per_kop"] = ratio(ctr("store_client_retries_total")*1e3, ops)
	v["store.backoff_ms_total"] = float64(hist("store_client_backoff_ns").Sum) / 1e6
	v["store.op_errors"] = ctr("store_client_op_errors_total")

	// The engine decorator.
	eng := &p.in.engine
	quant("engine.put_p50_ms", &eng.putMs, 0.5)
	quant("engine.put_p99_ms", &eng.putMs, 0.99)
	v["engine.put_busy_s"] = float64(eng.putBusy.Load()) / 1e9
	quant("engine.get_p50_ms", &eng.getMs, 0.5)
	v["engine.get_busy_s"] = float64(eng.getBusy.Load()) / 1e9
	v["engine.get_blocks_per_call"] = ratio(float64(eng.getBlocks.Load()), float64(eng.getMs.n()))

	histMs("diskstore.put_wait_p50_ms", "diskstore.put_wait_p99_ms", "diskstore_put_wait_ns")
	histMs("diskstore.fsync_p50_ms", "diskstore.fsync_p99_ms", "diskstore_fsync_ns")
	v["diskstore.fsyncs_per_kput"] = ratio(ctr("diskstore_fsyncs_total")*1e3, float64(hist("diskstore_put_wait_ns").Count))
	v["diskstore.batch_blocks_mean"] = hist("diskstore_batch_blocks").Mean
	v["diskstore.write_bytes_per_user_byte"] = ratio(ctr("diskstore_write_bytes_total"), float64(p.ackedPayload.Load()))
	v["diskstore.segments"] = float64(p.disk.segments)
	v["diskstore.open_ms"] = mean(p.disk.openMs.sorted())
	v["diskstore.replay_blocks_per_s"] = mean(p.disk.replayPerS.sorted())
	v["diskstore.torn_bytes"] = ctr("diskstore_torn_bytes_truncated_total")
	cacheHits := ctr("diskstore_cache_hits_total")
	v["diskstore.cache_hit_ratio"] = ratio(cacheHits, cacheHits+ctr("diskstore_cache_misses_total"))
	v["diskstore.cache_evictions"] = ctr("diskstore_cache_evictions_total")

	v["repair.audit_ms"] = ratio(sum("repair.audit"), float64(count("repair.audit")))
	v["repair.round_ms"] = ratio(sum("repair.run_once"), float64(count("repair.run_once")))
	v["repair.rounds_to_heal"] = mean(p.heal.repairRounds.sorted())
	v["repair.blocks_regenerated"] = float64(p.heal.regenerated)
	v["repair.bytes_collected_per_block"] = ratio(float64(p.heal.collected), float64(p.heal.regenerated))
	v["repair.bytes_placed_per_block"] = ratio(float64(p.heal.placed), float64(p.heal.regenerated))
	v["repair.copy_fallback_ratio"] = ratio(float64(p.heal.skipped), float64(p.heal.levels))

	v["mover.round_ms"] = ratio(sum("mover.run_once"), float64(count("mover.run_once")))
	v["mover.rounds_to_converge"] = mean(p.heal.moverRounds.sorted())
	v["mover.objects_migrated"] = float64(p.heal.migrated)
	v["mover.bytes_collected_per_block"] = ratio(float64(p.heal.moverBytes), float64(p.heal.moved))
	v["mover.blocks_reclaimed"] = float64(p.heal.reclaimed)
	v["mover.throttle_wait_ms"] = float64(hist("mover_throttle_wait_ns").Sum) / 1e6

	quant("driver.sched_lag_p99_ms", &p.lag, 0.99)
	v["driver.offered_ops_per_s"] = p.offeredPerS
	v["driver.overload_dropped"] = float64(p.dropped.Load())
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	v["driver.peak_heap_mb"] = float64(mem.HeapSys) / 1e6
	v["driver.gc_pause_ms_total"] = float64(mem.PauseTotalNs-p.gcPause0) / 1e6
	v["driver.trace_overhead_ratio"] = primaryRatio

	runProbes(p.probes, v)

	out := make(map[string]metric, len(perLayer))
	for _, def := range perLayer {
		out[def.Name] = metric{Value: v[def.Name], Unit: def.Unit, N: n[def.Name]}
	}
	return out
}
