package main

import "strings"

// metric is one named measurement. End-to-end metrics carry the bound by
// which the parent's median may worsen before a change counts as a
// regression; per-layer metrics name the end-to-end metric they should
// move and the workloads on which they should move it. BENCHMARK.json at
// the repository root lists the same names, units, directions and bounds
// (TestBenchmarkJSONMatchesTable).
type metric struct {
	name, unit, better string
	bound              float64  // end-to-end only
	moves              string   // per-layer only
	on                 []string // per-layer only
}

// Workload names.
const (
	wlMineCat  = "mine-categorical"
	wlMineCont = "mine-continuous"
	wlStream   = "stream-window"
	wlServe    = "serve-mixed"
)

var (
	catOnly      = []string{wlMineCat}
	contOnly     = []string{wlMineCont}
	serveOnly    = []string{wlServe}
	streamOnly   = []string{wlStream}
	parseWls     = []string{wlMineCat, wlMineCont, wlServe}
	sdadcsLayers = []string{wlMineCont, wlStream}
)

// endToEnd are the metrics a user of the system sees, measured with every
// instrument off. Every workload reports each of them; "operation" is the
// workload's unit of work (see README.md):
//
//	mine-*         one core.Mine call
//	stream-window  latency: an append that triggers a re-mine; throughput: appended rows
//	serve-mixed    one job, from POST /v1/jobs to the end of GET /result
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "op_p50_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "max_rss_mb", unit: "MB", better: "lower", bound: 0.25},
}

// perLayer are the single-layer metrics of the traced run.
var perLayer = []metric{
	{name: "dataset.parse_s", unit: "s", better: "lower", moves: "setup_s", on: parseWls},
	{name: "bitmap.build_s", unit: "s", better: "lower", moves: "setup_s", on: catOnly},
	{name: "bitmap.and_ops", unit: "count", better: "lower", moves: "op_p50_s", on: catOnly},
	{name: "bitmap.popcounts", unit: "count", better: "lower", moves: "op_p50_s", on: catOnly},
	{name: "bitmap.lazy_rows", unit: "count", better: "lower", moves: "op_p50_s", on: catOnly},
	{name: "bitmap.arena_recycle_ratio", unit: "ratio", better: "higher", moves: "op_p50_s", on: catOnly},
	{name: "core.nodes", unit: "count", better: "lower", moves: "op_p50_s", on: catOnly},
	{name: "core.survivor_ratio", unit: "ratio", better: "lower", moves: "op_p50_s", on: catOnly},
	{name: "core.level1_s", unit: "s", better: "lower", moves: "op_p50_s", on: catOnly},
	{name: "core.level2_s", unit: "s", better: "lower", moves: "op_p50_s", on: catOnly},
	{name: "core.level3_s", unit: "s", better: "lower", moves: "op_p50_s", on: catOnly},
	{name: "core.level4_s", unit: "s", better: "lower", moves: "op_p50_s", on: catOnly},
	{name: "core.alloc_bytes", unit: "bytes", better: "lower", moves: "op_p50_s", on: catOnly},
	{name: "core.mine_self_s", unit: "s", better: "lower", moves: "op_p50_s", on: catOnly},
	{name: "core.search_busy_s", unit: "s", better: "lower", moves: "op_p50_s", on: catOnly},
	{name: "core.prune.lookup_table", unit: "count", better: "higher", moves: "op_p50_s", on: catOnly},
	{name: "core.prune.redundancy_clt", unit: "count", better: "higher", moves: "op_p50_s", on: catOnly},
	{name: "core.prune.min_deviation", unit: "count", better: "higher", moves: "op_p50_s", on: catOnly},
	{name: "core.prune.optimistic_estimate", unit: "count", better: "higher", moves: "op_p50_s", on: catOnly},
	{name: "core.prune.pure_space", unit: "count", better: "higher", moves: "op_p50_s", on: catOnly},
	{name: "topk.threshold_updates", unit: "count", better: "lower", moves: "op_p50_s", on: catOnly},
	{name: "core.parallel_efficiency", unit: "ratio", better: "higher", moves: "op_p50_s", on: contOnly},
	{name: "sdadcs.busy_s", unit: "s", better: "lower", moves: "op_p50_s", on: sdadcsLayers},
	{name: "sdadcs.calls", unit: "count", better: "lower", moves: "op_p50_s", on: sdadcsLayers},
	{name: "sdadcs.splits", unit: "count", better: "lower", moves: "op_p50_s", on: sdadcsLayers},
	{name: "sdadcs.boxes", unit: "count", better: "lower", moves: "op_p50_s", on: sdadcsLayers},
	{name: "sdadcs.merge_attempts", unit: "count", better: "lower", moves: "op_p50_s", on: sdadcsLayers},
	{name: "sdadcs.merge_ops", unit: "count", better: "lower", moves: "op_p50_s", on: sdadcsLayers},
	{name: "stream.append_p50_us", unit: "us", better: "lower", moves: "ops_per_s", on: streamOnly},
	{name: "stream.append_p99_us", unit: "us", better: "lower", moves: "ops_per_s", on: streamOnly},
	{name: "stream.remines", unit: "count", better: "higher", moves: "op_p50_s", on: streamOnly},
	{name: "stream.skipped_mines", unit: "count", better: "lower", moves: "op_p50_s", on: streamOnly},
	{name: "stream.node_evals_per_remine", unit: "count", better: "lower", moves: "op_p50_s", on: streamOnly},
	{name: "stream.gate_stable_ratio", unit: "ratio", better: "higher", moves: "op_p50_s", on: streamOnly},
	{name: "serve.job_p90_s", unit: "s", better: "lower", moves: "op_p50_s", on: serveOnly},
	{name: "serve.submit_p50_ms", unit: "ms", better: "lower", moves: "op_p50_s", on: serveOnly},
	{name: "serve.queue_wait_p50_ms", unit: "ms", better: "lower", moves: "op_p50_s", on: serveOnly},
	{name: "serve.run_p50_s", unit: "s", better: "lower", moves: "op_p50_s", on: serveOnly},
	{name: "serve.result_p50_ms", unit: "ms", better: "lower", moves: "op_p50_s", on: serveOnly},
	{name: "serve.cache_hit_ratio", unit: "ratio", better: "higher", moves: "ops_per_s", on: serveOnly},
	{name: "serve.index_builds", unit: "count", better: "lower", moves: "ops_per_s", on: serveOnly},
	{name: "engine.sdadcs_run_p50_s", unit: "s", better: "lower", moves: "op_p50_s", on: serveOnly},
	{name: "engine.subgroup_run_p50_s", unit: "s", better: "lower", moves: "op_p50_s", on: serveOnly},
	{name: "engine.entropy_run_p50_s", unit: "s", better: "lower", moves: "op_p50_s", on: serveOnly},
	{name: "engine.stucco_run_p50_s", unit: "s", better: "lower", moves: "op_p50_s", on: serveOnly},
	{name: "store.register_s", unit: "s", better: "lower", moves: "setup_s", on: serveOnly},
	{name: "store.cold_acquire_s", unit: "s", better: "lower"},
	{name: "store.wal_fsyncs", unit: "count", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
}

// workload is one named input set and its driver.
type workload struct {
	name string
	why  string
	run  func(r *runner) error
}

var workloads = []workload{
	{wlMineCat, "80k rows x 32 categorical, depth 4: ~41k nodes and bitmap ANDs; half a mine is expansion outside the levels, 0 SDAD-CS calls; bypasses SDAD-CS and parallel workers", runMineCategorical},
	{wlMineCont, "3.2k rows x 24 continuous, 2 workers: SDAD-CS calls are ~all node-eval time (~5.2k splits); 12 bitmap ANDs, 0 lookup-table cuts; bypasses the bitmap and prune-table path", runMineContinuous},
	{wlStream, "20k shuffled mixed rows into a 2,000-row window, re-mine every 500: ~1 us appends beside ~0.25 s re-mines; incremental gate replays 0 nodes", runStream},
	{wlServe, "2 closed-loop HTTP clients, Adult 4.3k rows, stored: sdadcs jobs ~0.18 s run, baselines 2-110 ms, 1 cache hit in 10; only workload reaching serve, store and engine", runServe},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
