package main

import (
	"math"
	"sort"
)

// Clocks a metric can be read on. Virtual-clock metrics and counts are exact
// for a seed: two runs print identical digits. Wall-clock metrics carry the
// sandbox's noise; the allocator's counters repeat closely but not exactly
// (the loader inserts on several goroutines, the runtime allocates too).
const (
	wall    = "wall"
	heap    = "heap"
	virtual = "virtual"
	count   = "count"
)

// def declares one metric of the catalogue. BENCHMARK.json lists exactly
// these names, units and directions (TestSpecMatchesCatalogue).
type def struct {
	Name   string
	Unit   string
	Better string
	Clock  string
}

// endToEnd is what a user of the system sees, on both clocks. Every workload
// emits every one of them, so each is defined in terms of the workload's op:
// one dataset load (load), one SQL query (job-host, job-hybrid, fleet4), one
// simulated request (serve-openloop). Failed ops are not a metric here: they
// are the failed/attempted pair of the result line, and any failure makes the
// process exit non-zero.
var endToEnd = []def{
	{"setup_s", "s", "lower", wall},
	{"op_wall_ms_p50", "ms", "lower", wall},
	{"op_wall_ms_p90", "ms", "lower", wall},
	{"op_alloc_kb", "kB", "lower", heap},
	{"op_virtual_ms", "ms", "lower", virtual},
	{"stored_bytes_per_user_byte", "ratio", "lower", count},
}

// perLayer is one group per package, measured from outside: by timing calls
// into the package's exported functions and by reading the reports and
// counters those calls already return. A workload that does not exercise a
// layer reports 0 for it.
var perLayer = []def{
	// job → table → kv → lsm → flash, write path (every workload's set-up load).
	{"job.load_s", "s", "lower", wall},
	{"job.load_rows_per_s", "1/s", "higher", wall},
	{"job.alloc_kb_per_row", "kB", "lower", heap},
	{"lsm.ssts_after_load", "count", "lower", count},
	{"lsm.max_levels", "count", "lower", count},
	{"flash.mb_written", "MB", "lower", count},
	{"flash.mb_read_during_load", "MB", "lower", count},
	// kv / lsm / flash, read path: direct probes and counters over the traced pass.
	{"kv.scan_rows_per_s", "1/s", "higher", wall},
	{"kv.get_us_p50", "us", "lower", wall},
	{"lsm.host_cache_hit_pct", "%", "higher", count},
	{"lsm.bloom_negative_pct", "%", "higher", count},
	{"flash.page_reads_per_query", "count", "lower", count},
	{"flash.random_read_pct", "%", "lower", count},
	// sql
	{"sql.render_us_p50", "us", "lower", wall},
	{"sql.parse_us_p50", "us", "lower", wall},
	{"sql.validate_us_p50", "us", "lower", wall},
	// optimizer
	{"optimizer.buildplan_us_p50", "us", "lower", wall},
	{"optimizer.decide_us_p50", "us", "lower", wall},
	{"optimizer.device_decisions_pct", "%", "higher", count},
	{"optimizer.worse_than_host_pct", "%", "lower", virtual},
	// exec / expr
	{"exec.host_build_pct", "%", "lower", virtual},
	{"exec.host_probe_pct", "%", "lower", virtual},
	{"exec.host_process_pct", "%", "lower", virtual},
	{"exec.heaviest_query_wall_ms", "ms", "lower", wall},
	{"exec.heaviest_query_alloc_mb", "MB", "lower", heap},
	{"exec.cold_pass_ratio", "x", "lower", wall},
	// coop
	{"coop.run_wall_ms_p50", "ms", "lower", wall},
	{"coop.virtual_speedup_geomean", "x", "higher", virtual},
	{"coop.stall_initial_pct", "%", "lower", virtual},
	{"coop.stall_fetch_pct", "%", "lower", virtual},
	{"coop.transfer_pct", "%", "lower", virtual},
	{"coop.transfer_mb_total", "MB", "lower", count},
	{"coop.batches_total", "count", "lower", count},
	{"coop.retries_total", "count", "lower", count},
	{"coop.fallbacks_total", "count", "lower", count},
	// device
	{"device.scan_pct", "%", "lower", virtual},
	{"device.join_pct", "%", "lower", virtual},
	{"device.slot_wait_pct", "%", "lower", virtual},
	{"device.scan_rows_total", "count", "lower", count},
	{"device.scan_mb_total", "MB", "lower", count},
	{"device.cache_hit_pct", "%", "higher", count},
	{"device.slot_stalls_total", "count", "lower", count},
	// fleet
	{"fleet.build_descriptor_ms", "ms", "lower", wall},
	{"fleet.plan_shards_us_p50", "us", "lower", wall},
	{"fleet.run_wall_ms_p50", "ms", "lower", wall},
	{"fleet.virtual_speedup_geomean", "x", "higher", virtual},
	{"fleet.shard_skew_p90", "x", "lower", virtual},
	{"fleet.host_gather_pct", "%", "lower", virtual},
	{"fleet.degraded_shards_total", "count", "lower", count},
	{"fleet.hedges_fired_total", "count", "lower", count},
	{"fleet.fingerprint_mismatches", "count", "lower", count},
	// serve
	{"serve.measure_s", "s", "lower", wall},
	{"serve.prepare_us_per_stmt", "us", "lower", wall},
	{"serve.us_per_request", "us", "lower", wall},
	{"serve.slo_miss_pct", "%", "lower", virtual},
	{"serve.virtual_p99_ms", "ms", "lower", virtual},
	{"serve.max_rate_meeting_slo_qps", "1/s", "higher", virtual},
	{"serve.plan_cache_hit_pct", "%", "higher", count},
	{"serve.queue_wait_ms_p50", "ms", "lower", virtual},
	{"serve.rejected_pct", "%", "lower", virtual},
	{"serve.device_placed_pct", "%", "higher", virtual},
	{"serve.makespan_overrun_s", "s", "lower", virtual},
	{"serve.host_policy_miss_pct", "%", "lower", virtual},
	{"serve.smallcache_hit_pct", "%", "higher", count},
	{"serve.smallcache_us_per_request", "us", "lower", wall},
	{"serve.generator_late_ms", "ms", "lower", virtual},
	// obs, and the benchmark's own loop
	{"obs.trace_overhead_pct", "%", "lower", wall},
	{"obs.spans_per_query", "count", "lower", count},
	{"bench.loop_self_pct", "%", "lower", wall},
	{"bench.pass_wall_s", "s", "lower", wall},
	{"bench.pass_virtual_s", "s", "lower", virtual},
}

// value is one measured metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Clock string  `json:"clock,omitempty"`
	// Samples is the sample count behind a percentile or median (0 for sums
	// and ratios).
	Samples int `json:"samples,omitempty"`
	// Spread is the interquartile range of the metric over this run's timed
	// passes as a share of their median — the run's own noise floor, which
	// -compare needs to tell "worse" from "unresolved". 0 when exact or when
	// fewer than two passes were timed.
	Spread float64 `json:"spread,omitempty"`
}

// values collects the metrics of one run under the catalogue's names.
type values map[string]value

func lookup(defs []def, name string) (def, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return def{}, false
}

// set records a metric; the name must be in the catalogue, so a typo cannot
// silently add a metric BENCHMARK.json does not declare.
func (v values) set(name string, x float64) { v.setSampled(name, x, 0, 0) }

func (v values) setSampled(name string, x float64, samples int, spread float64) {
	d, ok := lookup(endToEnd, name)
	if !ok {
		d, ok = lookup(perLayer, name)
	}
	if !ok {
		panic("bench: metric " + name + " is not in the catalogue")
	}
	if math.IsInf(x, 0) || math.IsNaN(x) {
		panic("bench: metric " + name + " is not finite")
	}
	v[name] = value{Value: x, Unit: d.Unit, Clock: d.Clock, Samples: samples, Spread: spread}
}

// complete returns v restricted to defs, with a zero for every metric of defs
// the workload did not set.
func (v values) complete(defs []def) values {
	out := make(values, len(defs))
	for _, d := range defs {
		if m, ok := v[d.Name]; ok {
			out[d.Name] = m
		} else {
			out[d.Name] = value{Unit: d.Unit, Clock: d.Clock}
		}
	}
	return out
}

// quantile interpolates the q-quantile of xs linearly between order
// statistics; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is the interquartile range of xs as a share of their median.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// pct is 100·part/whole, 0 for an empty whole, rounded to nine decimals: the
// parts are often phase totals that obs sums in map order, so their last
// float digit is not stable and would otherwise leak into an exact metric.
func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return math.Round(100*part/whole*1e9) / 1e9
}
