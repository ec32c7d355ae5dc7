package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list;
// TestBenchmarkJSONMatchesCatalog keeps the file and these tables equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd is what a user of the system sees, on every workload: the
// driver takes every end-to-end metric from every run, none of them zero
// and no timing constant. /insert latency exists on serve-mixed only, is the
// shared disk's fsync as much as the program (its median moved 20 % between
// back-to-back runs), and so is the per-layer server.insert_latency_ms_p50,
// not a seventh row here with a stand-in on three workloads.
// wire_bytes_per_query is a count, exact and free, and stays: socket bytes
// on cluster-tcp, HTTP body bytes on serve-mixed, and on the batch
// workloads, which have no wire, the constant payload floor (4·dim in, 16·k
// out).
//
// No timing bound is past the issue's ceiling of 10 %; what the ten-seed
// spreads on the sandbox were is in README, "End-to-end metrics".
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.10},
	{"throughput_qps", "1/s", "higher", 0.10},
	{"latency_p50_ms", "ms", "lower", 0.10},
	{"evals_per_query", "count", "lower", 0.01},
	{"wire_bytes_per_query", "B", "lower", 0.005},
	{"peak_rss_mb", "MiB", "lower", 0.05},
}

// perLayer is what the traced run reports, layer = module name.
var perLayer = []metricDef{
	{Name: "metric.exact_row_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "metric.exact_tile_evals_per_s", Unit: "1/s", Better: "higher"},
	{Name: "metric.fast_tile_evals_per_s", Unit: "1/s", Better: "higher"},
	{Name: "metric.pct_of_stream", Unit: "%", Better: "higher"},
	{Name: "metric.tile_budget", Unit: "count", Better: "higher"},

	{Name: "bruteforce.full_scan_evals_per_s", Unit: "1/s", Better: "higher"},
	{Name: "bruteforce.phase1_ms_per_block", Unit: "ms", Better: "lower"},
	{Name: "bruteforce.single_scan_us", Unit: "us", Better: "lower"},

	{Name: "core.build_s", Unit: "s", Better: "lower"},
	{Name: "core.rep_evals_per_query", Unit: "count", Better: "lower"},
	{Name: "core.point_evals_per_query", Unit: "count", Better: "lower"},
	{Name: "core.reps_kept_per_query", Unit: "count", Better: "lower"},
	{Name: "core.pruned_psi_share", Unit: "%", Better: "higher"},
	{Name: "core.pruned_triple_share", Unit: "%", Better: "higher"},
	{Name: "core.speedup_vs_bf", Unit: "x", Better: "higher"},
	{Name: "core.phase2_ms_per_block", Unit: "ms", Better: "lower"},
	{Name: "core.scan_evals_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.batch_vs_single_ratio", Unit: "x", Better: "higher"},
	{Name: "core.insert_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.delete_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.seg_merges", Unit: "count", Better: "lower"},
	{Name: "core.save_s", Unit: "s", Better: "lower"},
	{Name: "core.load_s", Unit: "s", Better: "lower"},

	{Name: "par.speedup_nproc", Unit: "x", Better: "higher"},

	{Name: "server.healthz_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.query_handler_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.insert_handler_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.insert_latency_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.json_overhead_us", Unit: "us", Better: "lower"},
	{Name: "server.coalesce_wait_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.coalesce_batch_mean", Unit: "count", Better: "higher"},
	{Name: "server.recovery_s", Unit: "s", Better: "lower"},
	{Name: "server.snapshot_s", Unit: "s", Better: "lower"},

	{Name: "wal.append_us_p50", Unit: "us", Better: "lower"},
	{Name: "wal.fsync_us_p50", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_insert", Unit: "B", Better: "lower"},
	{Name: "wal.syncs_per_insert", Unit: "count", Better: "lower"},
	{Name: "wal.replay_records_per_s", Unit: "1/s", Better: "higher"},

	{Name: "wire.scanreq_encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "wire.scanreq_decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "wire.scanreply_encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "wire.scanreply_decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "wire.shardstate_encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "wire.frame_roundtrip_us", Unit: "us", Better: "lower"},

	{Name: "distributed.build_s", Unit: "s", Better: "lower"},
	{Name: "distributed.distribute_s", Unit: "s", Better: "lower"},
	{Name: "distributed.loopback_block_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "distributed.tcp_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "distributed.exchange_rtt_us_mean", Unit: "us", Better: "lower"},
	{Name: "distributed.requests_per_block", Unit: "count", Better: "lower"},
	{Name: "distributed.bytes_sent_per_query", Unit: "B", Better: "lower"},
	{Name: "distributed.bytes_recv_per_query", Unit: "B", Better: "lower"},
	{Name: "distributed.windows_per_query", Unit: "count", Better: "lower"},
	{Name: "distributed.empty_window_share", Unit: "%", Better: "higher"},
	{Name: "distributed.retries", Unit: "count", Better: "lower"},
	{Name: "distributed.failed_shards", Unit: "count", Better: "lower"},
	{Name: "distributed.vs_single_node_ratio", Unit: "x", Better: "lower"},

	{Name: "runtime.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower"},

	{Name: "bench.round_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "bench.round_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "bench.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.noise_ratio", Unit: "x", Better: "lower"},
	{Name: "bench.calib_fma_us_p50", Unit: "us", Better: "lower"},
	{Name: "bench.calib_stream_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.rounds_timed", Unit: "count", Better: "higher"},
	{Name: "dataset.gen_s", Unit: "s", Better: "lower"},
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line of stdout.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// report collects a run's metrics. Every name is put exactly once and must
// be in the catalog the run was opened with; anything else is a bench bug
// and fails the run rather than shipping a number nobody declared.
type report struct {
	defs    map[string]metricDef
	vals    map[string]metricVal
	samples map[string]int
	diag    []string // unbounded diagnostics printed with an end-to-end run
	errs    []string
	out     io.Writer
}

func newReport(catalog []metricDef, out io.Writer) *report {
	r := &report{defs: map[string]metricDef{}, vals: map[string]metricVal{}, samples: map[string]int{}, out: out}
	for _, d := range catalog {
		r.defs[d.Name] = d
	}
	return r
}

// put records metric name; samples is how many timings or counted
// operations the value rests on (0 for a plain counter).
func (r *report) put(name string, value float64, samples int) {
	d, ok := r.defs[name]
	switch {
	case !ok:
		r.errs = append(r.errs, "undeclared metric "+name)
	case math.IsNaN(value) || math.IsInf(value, 0):
		r.errs = append(r.errs, fmt.Sprintf("metric %s is %v", name, value))
	default:
		if _, dup := r.vals[name]; dup {
			r.errs = append(r.errs, "metric emitted twice: "+name)
		}
		r.vals[name] = metricVal{Value: value, Unit: d.Unit}
		r.samples[name] = samples
	}
}

// note prints an unbounded diagnostic beside the declared metrics.
func (r *report) note(name string, value float64, unit string, samples int) {
	r.diag = append(r.diag, fmt.Sprintf("  %-36s %14.6g %-6s n=%d", name, value, unit, samples))
}

// finish checks that every declared metric was emitted, prints the
// human-readable table and returns the result object.
func (r *report) finish(attempted, failed int64) (result, error) {
	names := make([]string, 0, len(r.defs))
	for n := range r.defs {
		names = append(names, n)
		if _, ok := r.vals[n]; !ok {
			r.errs = append(r.errs, "metric not emitted: "+n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		if v, ok := r.vals[n]; ok {
			fmt.Fprintf(r.out, "  %-36s %14.6g %-6s n=%d\n", n, v.Value, v.Unit, r.samples[n])
		}
	}
	for _, d := range r.diag {
		fmt.Fprintln(r.out, d)
	}
	res := result{Correct: failed == 0 && len(r.errs) == 0, Attempted: attempted, Failed: failed, Metrics: r.vals}
	if len(r.errs) > 0 {
		sort.Strings(r.errs)
		return res, fmt.Errorf("report: %v", r.errs)
	}
	return res, nil
}

func (res result) json() string {
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // finite floats and strings always encode
	}
	return string(b)
}
