package main

import (
	"fmt"
	"sort"
)

// metricDef declares one metric. This table and BENCHMARK.json must
// agree in both directions; manifest_test.go holds them to it.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the baseline median by which it may worsen
}

// endToEnd is what a client of simserver/simrouter sees. Every measured
// metric takes the widest bound the contract allows: over ten seeds on
// the shared 2-vCPU reference box their spread, after scaling to the
// reference speed, is 4 to 13 % (README, "Repeatability"), and a bound
// should be about three times the spread. The two accuracy metrics
// repeat exactly, so their bound is a quality gate, not a noise margin.
var endToEnd = []metricDef{
	{"qps", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p99_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_query", "ms", "lower", 0.25},
	{"rss_mb", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"precision_at_20", "ratio", "higher", 0.02},
	{"ndcg_at_20", "ratio", "higher", 0.02},
}

// perLayer names each module's share. Every time is a mean over the
// traced stream prefix unless its comment says otherwise; the README
// says which end-to-end metric each one should move, on which workload.
var perLayer = []metricDef{
	// internal/graph
	{name: "graph.load_ms", unit: "ms", better: "lower"},
	{name: "graph.ball_us", unit: "us", better: "lower"},
	{name: "graph.ball_vertices", unit: "count", better: "lower"},
	{name: "graph.walk_step_ns", unit: "ns", better: "lower"},
	// internal/core, set-up
	{name: "core.build_ms", unit: "ms", better: "lower"},
	{name: "core.gamma_ms", unit: "ms", better: "lower"},
	{name: "core.index_ms", unit: "ms", better: "lower"},
	{name: "core.index_bytes", unit: "B", better: "lower"},
	{name: "core.load_stream_ms", unit: "ms", better: "lower"},
	{name: "core.load_mmap_ms", unit: "ms", better: "lower"},
	// internal/core, query
	{name: "core.topk_cold_us", unit: "us", better: "lower"},
	{name: "core.topk_warm_us", unit: "us", better: "lower"},
	{name: "core.topk_hit_us", unit: "us", better: "lower"},
	{name: "core.prolog_us", unit: "us", better: "lower"},
	{name: "core.walk_us", unit: "us", better: "lower"},
	{name: "core.rest_us", unit: "us", better: "lower"},
	{name: "core.candidates", unit: "count", better: "lower"},
	{name: "core.pruned_by_bound", unit: "count", better: "higher"},
	{name: "core.pruned_by_rough", unit: "count", better: "higher"},
	{name: "core.refined", unit: "count", better: "lower"},
	{name: "core.returned", unit: "count", better: "higher"},
	{name: "core.refine_yield", unit: "ratio", better: "higher"},
	// internal/core, caches
	{name: "core.prolog_hit_ratio", unit: "ratio", better: "higher"},
	{name: "core.tally_hit_ratio", unit: "ratio", better: "higher"},
	{name: "server.prolog_hit_ratio", unit: "ratio", better: "higher"},
	{name: "server.tally_hit_ratio", unit: "ratio", better: "higher"},
	// internal/core, shard path
	{name: "core.shard_scan_us", unit: "us", better: "lower"},
	{name: "core.shard_split", unit: "ratio", better: "higher"},
	{name: "core.merge_us", unit: "us", better: "lower"},
	{name: "core.frag_cands", unit: "count", better: "lower"},
	{name: "core.batch16_us", unit: "us", better: "lower"},
	// internal/wire
	{name: "wire.encode_us", unit: "us", better: "lower"},
	{name: "wire.decode_us", unit: "us", better: "lower"},
	{name: "wire.frame_bytes", unit: "B", better: "lower"},
	// internal/server
	{name: "server.topk_us", unit: "us", better: "lower"},
	{name: "server.overhead_us", unit: "us", better: "lower"},
	{name: "server.batch16_us", unit: "us", better: "lower"},
	{name: "server.shard_bin_us", unit: "us", better: "lower"},
	{name: "server.shard_json_us", unit: "us", better: "lower"},
	{name: "server.tcp_bin_us", unit: "us", better: "lower"},
	{name: "server.timeouts", unit: "count", better: "lower"},
	{name: "server.bytes_sent_per_req", unit: "B", better: "lower"},
	// internal/router
	{name: "router.topk_us.tcp-bin", unit: "us", better: "lower"},
	{name: "router.topk_us.http-bin", unit: "us", better: "lower"},
	{name: "router.topk_us.json", unit: "us", better: "lower"},
	{name: "router.batch16_us.tcp-bin", unit: "us", better: "lower"},
	{name: "router.overhead_us", unit: "us", better: "lower"},
	{name: "router.encode_ns_per_req", unit: "ns", better: "lower"},
	{name: "router.decode_ns_per_req", unit: "ns", better: "lower"},
	{name: "router.bytes_per_req", unit: "B", better: "lower"},
	{name: "router.hedges_fired", unit: "count", better: "lower"},
	{name: "router.attempt_errors", unit: "count", better: "lower"},
	{name: "router.failures", unit: "count", better: "lower"},
	// the harness itself
	{name: "loadgen.null_us", unit: "us", better: "lower"},
	{name: "loadgen.cpu_share", unit: "ratio", better: "lower"},
	{name: "loadgen.speed", unit: "ratio", better: "lower"},
}

// metricValue is one reported number, in the contract's shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's outcome; its JSON form is the line the
// driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill stores values under the declared names of defs, and fails on a
// value without a declaration or a declaration without a value, so the
// harness can never drift from the table above.
func (r *result) fill(defs []metricDef, values map[string]float64) error {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metricValue, len(defs))
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("metric %s is declared but was not measured", d.name)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		delete(values, d.name)
	}
	if len(values) > 0 {
		extra := make([]string, 0, len(values))
		for name := range values {
			extra = append(extra, name)
		}
		sort.Strings(extra)
		return fmt.Errorf("metrics measured but not declared: %v", extra)
	}
	return nil
}
