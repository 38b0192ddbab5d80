package main

import (
	"strings"

	"eris/internal/metrics"
)

// layerCounters derives the counter-based per-layer metrics of one phase
// from two engine snapshots taken around it. Everything here is read from
// outside the engine: DB.MetricsSnapshot, the client's own registry, the Go
// runtime and getrusage.
func layerCounters(m metricSet, before, after sample, st phaseStats, in *instance) {
	d := after.engine.Delta(before.engine)
	cd := after.client.Delta(before.client)
	ops := float64(st.ops)
	perOp := func(v int64) float64 {
		if ops == 0 {
			return 0
		}
		return float64(v) / ops
	}
	count := func(name string) float64 { return float64(d.Counter(name)) }
	sum := func(prefix, suffix string) int64 { return d.SumCounters(prefix, suffix) }

	for _, n := range []string{"requests", "retries", "timeouts", "errors"} {
		m["client."+n] = float64(cd.Counter("client." + n))
	}
	for _, n := range []string{"requests", "admitted", "shed", "expired", "errors"} {
		m["server."+n] = count("server." + n)
	}

	m["routing.routed_cmds_per_op"] = perOp(sum("routing.outbox.", ".routed_cmds"))
	m["routing.routed_keys_per_op"] = perOp(sum("routing.outbox.", ".routed_keys"))
	m["routing.flushes_per_op"] = perOp(sum("routing.outbox.", ".flushes"))
	m["routing.inbox_swaps_per_op"] = perOp(sum("routing.inbox.", ".swaps"))
	m["routing.inbox_cas_retries"] = float64(sum("routing.inbox.", ".cas_retries"))
	m["routing.inbox_overflows"] = float64(sum("routing.inbox.", ".overflows"))

	m["aeu.ops"] = float64(sum("aeu.", ".ops"))
	m["aeu.iterations_per_op"] = perOp(sum("aeu.", ".iterations"))
	for _, n := range []string{"forwards", "deferred", "expired", "range_repairs"} {
		m["aeu."+n] = float64(sum("aeu.", "."+n))
	}
	m["aeu.group_ns_p50"] = histogramP50(d, "aeu.", ".group_ns")

	scanned := sum("aeu.", ".colscan.blocks_scanned")
	m["colstore.blocks_scanned"] = float64(scanned)
	m["colstore.blocks_pruned"] = float64(sum("aeu.", ".colscan.blocks_pruned"))
	m["colstore.blocks_full_hit"] = float64(sum("aeu.", ".colscan.blocks_full_hit"))
	if in.tgt.col != nil && ops > 0 {
		blocks := float64(in.tuples) / colBlockEntries
		m["colstore.share_ratio"] = float64(scanned) / (ops * blocks)
	}

	fsyncs, records := d.Counter("durable.fsyncs"), d.Counter("durable.records")
	m["durable.fsyncs_per_op"] = perOp(fsyncs)
	if fsyncs > 0 {
		m["durable.records_per_fsync"] = float64(records) / float64(fsyncs)
	}
	if st.tuples > 0 {
		m["durable.log_bytes_per_user_byte"] = count("durable.bytes_logged") / float64(st.tuples*16)
	}
	for _, n := range []string{"checkpoints", "checkpoint_bytes", "fsync_failures", "log_errors"} {
		m["durable."+n] = count("durable." + n)
	}

	for _, n := range []string{"evaluations", "cycles", "aborted", "timeouts", "retries", "moved_tuples_est"} {
		m["balance."+n] = count("balance." + n)
	}

	for _, n := range []string{"alloc_failures", "cache_hits", "lock_allocs"} {
		m["mem."+n] = float64(sum("mem.node.", "."+n))
	}

	clock := after.engine.Gauge("machine.max_clock_ps") - before.engine.Gauge("machine.max_clock_ps")
	m["numasim.virtual_ns_per_op"] = perOp(clock) / 1e3
	m["numasim.link_bytes_per_op"] = perOp(d.Counter("machine.link_bytes_total"))
	m["numasim.mc_bytes_per_op"] = perOp(d.Counter("machine.mc_bytes_total"))

	m["runtime.cpu_us_per_op"] = perOp(int64(after.cpu-before.cpu)) / 1e3
	m["runtime.allocs_per_op"] = perOp(int64(after.mem.Mallocs - before.mem.Mallocs))
	m["runtime.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
	m["runtime.gc_pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	m["runtime.heap_growth_bytes"] = float64(after.mem.HeapAlloc) - float64(before.mem.HeapAlloc)
}

// colBlockEntries is colstore's default block size; share_ratio needs the
// number of blocks a full pass over the column evaluates.
const colBlockEntries = 4096

// histogramP50 merges every histogram named prefix…suffix and returns the
// upper bound of the bucket holding the median observation.
func histogramP50(d metrics.Snapshot, prefix, suffix string) float64 {
	var bounds, counts []int64
	var total int64
	for name, h := range d.Histograms {
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		if counts == nil {
			bounds, counts = h.Bounds, make([]int64, len(h.Counts))
		}
		for i, c := range h.Counts {
			counts[i] += c
		}
		total += h.Count
	}
	var seen int64
	for i, c := range counts {
		seen += c
		if total > 0 && seen*2 >= total {
			if i < len(bounds) {
				return float64(bounds[i])
			}
			return float64(bounds[len(bounds)-1]) // overflow bucket
		}
	}
	return 0
}
