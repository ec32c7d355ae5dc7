package harness

import (
	"fmt"
	"math"

	"repro/internal/bruteforce"
	"repro/internal/dataset"
	"repro/internal/metric"
	"repro/internal/stats"
)

// quantSweepNs are the database sizes swept (capped by
// Config.QuantSweepCap): 50k is cache-resident at the benchmark
// workloads' scale, 1M is firmly DRAM-resident — the regime where the
// float32 scan is bandwidth-bound and the 4×-smaller int8 codes pull
// ahead.
var quantSweepNs = []int{50_000, 1_000_000}

// quantSweepDims are the robot workload's dimension and the benchmark
// workloads' widest.
var quantSweepDims = []int{21, 64}

// RunQuantSweep measures the int8 two-pass k-NN scan against the exact
// float32 SearchK as n grows, at each swept dimension: per-query wall
// time of each scan, the quantized encode cost, and the footprint of
// each representation. The corpora are generated with the streaming
// dataset generator, so the peak footprint is the data itself
// (workload()'s generate-then-Subset pattern would double it at n = 1M).
func RunQuantSweep(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	const k = 10
	nq := cfg.Queries
	if nq > 16 {
		nq = 16 // the scans dominate; a handful of queries times them fine
	}
	t := stats.NewTable("Int8 two-pass vs exact brute-force scan (k=10)",
		"dim", "n", "f32 B/row", "int8 B/row", "encode s", "exact ms/q", "int8 ms/q", "speedup")
	chart := stats.NewChart("Int8 two-pass vs exact scan time by n (log-log)",
		"database size n", "scan ms per query")
	chart.LogX, chart.LogY = true, true
	// Best of three: scan times at this scale are stable, but the first
	// touch pays page faults.
	best := func(f func()) float64 {
		b := math.Inf(1)
		for r := 0; r < 3; r++ {
			if s := timeIt(f); s < b {
				b = s
			}
		}
		return b
	}
	perQ := 1e3 / float64(nq)
	for _, dim := range quantSweepDims {
		var xs, exactYs, quantYs []float64
		seen := map[int]bool{}
		for _, base := range quantSweepNs {
			n := min(base, cfg.QuantSweepCap)
			if seen[n] {
				continue
			}
			seen[n] = true
			db, queries := dataset.UniformStream(dim, cfg.Seed).Split(n, nq)
			var v *metric.QuantizedView
			encodeSec := timeIt(func() { v = metric.NewQuantizedView(db.Data, db.Dim) })
			exactSec := best(func() { bruteforce.SearchK(queries, db, k, euclid, nil) })
			quantSec := best(func() { bruteforce.SearchKQuantizedView(queries, db, k, v, euclid, nil) })
			t.AddRow(dim, n, dim*4, v.Stride(),
				encodeSec, exactSec*perQ, quantSec*perQ, exactSec/quantSec)
			xs = append(xs, float64(n))
			exactYs = append(exactYs, exactSec*perQ)
			quantYs = append(quantYs, quantSec*perQ)
		}
		chart.Add(fmt.Sprintf("exact f32 dim=%d", dim), xs, exactYs)
		chart.Add(fmt.Sprintf("int8 two-pass dim=%d", dim), xs, quantYs)
	}
	return &Output{Tables: []*stats.Table{t}, Charts: []*stats.Chart{chart}}, nil
}
