package main

import (
	"math"
	"slices"
	"sort"
)

// metricSpec names one reported metric. bound is the share of the baseline
// median by which the metric may worsen before -compare calls it a
// regression; 0 means the metric has no bound (per-layer metrics).
type metricSpec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd are the metrics a user of the engine sees that an automatic
// driver can gate on: BENCHMARK.json lists exactly these under end_to_end,
// with these bounds, and the result line of an untraced run carries them.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"heap_bytes_per_tuple", "B", "lower", 0.02},
}

// endToEndExtra are end-to-end metrics too: printed with the others, stored
// in the ledger file and judged by -compare against these bounds. The driver
// wants every end_to_end metric from every workload, never 0, and refuses a
// benchmark in which ten runs' quartile spread of a listed metric exceeds its
// bound (at most 0.25) on any workload. recover_s exists on one workload,
// failed_frac is 0 on a correct run, and p99_us of serve-upsert-durable sits
// on the knee between the ordinary tail and the operations a checkpoint
// delays (spread 70 % over ten runs, ../baseline/README.md), so for the
// driver these three are listed under per_layer, which carries no bound.
var endToEndExtra = []metricSpec{
	{"p99_us", "us", "lower", 0.25},
	{"recover_s", "s", "lower", 0.25},
	{"failed_frac", "ratio", "lower", 0},
}

// allEndToEnd is endToEnd followed by endToEndExtra.
func allEndToEnd() []metricSpec { return append(slices.Clone(endToEnd), endToEndExtra...) }

// perLayer lists every per-layer metric with the direction an optimisation
// should move it. Every workload reports all of them; a layer a workload
// bypasses reports 0.
var perLayer = []metricSpec{
	{"client.requests", "count", "higher", 0},
	{"client.retries", "count", "lower", 0},
	{"client.timeouts", "count", "lower", 0},
	{"client.errors", "count", "lower", 0},

	{"wire.encode_req_ns", "ns", "lower", 0},
	{"wire.decode_req_ns", "ns", "lower", 0},
	{"wire.encode_resp_ns", "ns", "lower", 0},
	{"wire.decode_resp_ns", "ns", "lower", 0},
	{"wire.req_bytes", "B", "lower", 0},
	{"wire.resp_bytes", "B", "lower", 0},

	{"server.requests", "count", "higher", 0},
	{"server.admitted", "count", "higher", 0},
	{"server.shed", "count", "lower", 0},
	{"server.expired", "count", "lower", 0},
	{"server.errors", "count", "lower", 0},
	{"server.rpc_overhead_us", "us", "lower", 0},

	{"core.call_us_p50", "us", "lower", 0},
	{"core.call_us_p99", "us", "lower", 0},
	{"core.handoff_us", "us", "lower", 0},

	{"routing.routed_cmds_per_op", "1/op", "lower", 0},
	{"routing.routed_keys_per_op", "1/op", "lower", 0},
	{"routing.flushes_per_op", "1/op", "lower", 0},
	{"routing.inbox_swaps_per_op", "1/op", "lower", 0},
	{"routing.inbox_cas_retries", "count", "lower", 0},
	{"routing.inbox_overflows", "count", "lower", 0},
	{"routing.owner_ns_per_key", "ns", "lower", 0},

	{"command.encode_ns", "ns", "lower", 0},
	{"command.decode_ns", "ns", "lower", 0},

	{"aeu.ops", "count", "higher", 0},
	{"aeu.iterations_per_op", "1/op", "lower", 0},
	{"aeu.forwards", "count", "lower", 0},
	{"aeu.deferred", "count", "lower", 0},
	{"aeu.expired", "count", "lower", 0},
	{"aeu.range_repairs", "count", "lower", 0},
	{"aeu.group_ns_p50", "ns", "lower", 0},

	{"prefixtree.load_ns_per_key", "ns", "lower", 0},
	{"prefixtree.lookup_ns_per_key", "ns", "lower", 0},
	{"prefixtree.upsert_ns_per_key", "ns", "lower", 0},
	{"prefixtree.delete_ns_per_key", "ns", "lower", 0},
	{"prefixtree.bytes_per_key", "B", "lower", 0},

	{"colstore.scan_ns_per_tuple", "ns", "lower", 0},
	{"colstore.blocks_scanned", "count", "lower", 0},
	{"colstore.blocks_pruned", "count", "higher", 0},
	{"colstore.blocks_full_hit", "count", "higher", 0},
	{"colstore.share_ratio", "ratio", "lower", 0},

	{"durable.fsyncs_per_op", "1/op", "lower", 0},
	{"durable.records_per_fsync", "count", "higher", 0},
	{"durable.log_bytes_per_user_byte", "ratio", "lower", 0},
	{"durable.checkpoints", "count", "higher", 0},
	{"durable.checkpoint_bytes", "B", "lower", 0},
	{"durable.fsync_failures", "count", "lower", 0},
	{"durable.log_errors", "count", "lower", 0},
	{"durable.replay_records", "count", "lower", 0},
	{"durable.replay_bytes", "B", "lower", 0},
	{"durable.torn_tails", "count", "lower", 0},
	{"durable.recovery_ns", "ns", "lower", 0},

	{"balance.evaluations", "count", "higher", 0},
	{"balance.cycles", "count", "higher", 0},
	{"balance.aborted", "count", "lower", 0},
	{"balance.timeouts", "count", "lower", 0},
	{"balance.retries", "count", "lower", 0},
	{"balance.moved_tuples_est", "count", "lower", 0},

	{"mem.allocated_bytes_per_tuple", "B", "lower", 0},
	{"mem.alloc_failures", "count", "lower", 0},
	{"mem.cache_hits", "count", "higher", 0},
	{"mem.lock_allocs", "count", "lower", 0},

	{"numasim.virtual_ns_per_op", "ns", "lower", 0},
	{"numasim.link_bytes_per_op", "B", "lower", 0},
	{"numasim.mc_bytes_per_op", "B", "lower", 0},

	{"runtime.cpu_us_per_op", "us", "lower", 0},
	{"runtime.allocs_per_op", "1/op", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.heap_growth_bytes", "B", "lower", 0},
	{"tuples_per_s", "1/s", "higher", 0},
	{"host.steal_frac", "ratio", "lower", 0},
	{"host.window_cv", "ratio", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"trace.p50_us", "us", "lower", 0},
	{"trace.replays", "count", "higher", 0},

	{"p99_us", "us", "lower", 0},
	{"recover_s", "s", "lower", 0},
	{"failed_frac", "ratio", "lower", 0},
}

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name; report fills every name of a spec list,
// so a metric a workload never sets reads 0.
type metricSet map[string]float64

func (m metricSet) report(specs []metricSpec) map[string]value {
	out := make(map[string]value, len(specs))
	for _, s := range specs {
		out[s.name] = value{Value: m[s.name], Unit: s.unit}
	}
	return out
}

// percentile returns the p-quantile (0..1) of an ascending slice by the
// nearest-rank rule; 0 when empty.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// p50 sorts xs in place and returns its median.
func p50(xs []int64) float64 {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return percentile(xs, 0.5)
}

// cv is the coefficient of variation (population standard deviation over
// mean); 0 for fewer than two values.
func cv(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss/float64(len(xs))) / mean
}
