package harness

import (
	"fmt"
	"math"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/covertree"
	"repro/internal/dataset"
	"repro/internal/expansion"
	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/stats"
)

// euclid is the metric used by all of the paper's experiments.
var euclid = metric.Euclidean{}

// RunTable1 regenerates Table 1: the dataset overview, extended with the
// estimated growth dimension that §6 argues governs RBC performance.
func RunTable1(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	t := stats.NewTable("Table 1: data sets (scaled ×"+fmt.Sprintf("%g", cfg.Scale)+")",
		"name", "paper n", "n used", "dim", "growth dim (est)", "c (median)")
	for _, e := range dataset.Catalog() {
		db, _ := workload(e, cfg, 0)
		est := expansion.Vectors(db, euclid, expansion.Options{Samples: 24, Seed: cfg.Seed})
		t.AddRow(e.Name, e.PaperN, db.N(), e.Dim, est.Dim, est.CMedian)
	}
	return &Output{Tables: []*stats.Table{t}}, nil
}

// fig1Factors are the n_r = s multipliers (×√n) swept for the one-shot
// tradeoff curve.
var fig1Factors = []float64{0.25, 0.5, 1, 2, 4}

// RunFig1 regenerates Figure 1: one-shot speedup (y) against mean rank
// error (x), log-log, one series per dataset. Speedup is reported both as
// wall-clock (brute time / RBC time on this machine) and as the
// machine-independent work ratio n/(evals per query). Its nr = s = 2√n
// row is Table 2's configuration, and that row's work-speedup column is
// Table 2's number.
func RunFig1(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	chart := stats.NewChart("Figure 1: one-shot speedup vs mean rank (log-log)",
		"mean rank of returned neighbor", "work speedup over brute force")
	chart.LogX, chart.LogY = true, true
	table := stats.NewTable("Figure 1 data: one-shot tradeoff sweep",
		"dataset", "n", "nr=s", "mean rank", "work speedup", "wall speedup", "recall")
	for _, e := range dataset.Catalog() {
		db, queries := workload(e, cfg, 0)
		n := db.N()
		// The timed baseline is also the recall ground truth.
		var bruteRes []par.Neighbor
		bruteSec := timeIt(func() { bruteRes = bruteforce.Search(queries, db, euclid, nil) })
		wantDists := make([]float64, queries.N())
		for i, r := range bruteRes {
			wantDists[i] = r.Dist
		}
		xs := make([]float64, 0, len(fig1Factors))
		ys := make([]float64, 0, len(fig1Factors))
		for _, f := range fig1Factors {
			nr := int(f * math.Sqrt(float64(n)))
			if nr < 1 {
				nr = 1
			}
			if nr > n {
				nr = n
			}
			idx, err := core.BuildOneShot(db, euclid, core.OneShotParams{
				NumReps: nr, S: nr, Seed: cfg.Seed, ExactCount: true})
			if err != nil {
				return nil, err
			}
			var res [][]par.Neighbor
			var st core.Stats
			rbcSec := timeIt(func() { res, st = idx.KNNBatch(queries, 1) })
			gotDists := make([]float64, queries.N())
			for i, r := range res {
				gotDists[i] = r[0].Dist
			}
			meanRank := stats.MeanRank(queries, db, gotDists, euclid)
			workSpeedup := float64(n) * float64(queries.N()) / float64(st.TotalEvals())
			wallSpeedup := bruteSec / rbcSec
			recall := stats.Recall(gotDists, wantDists)
			table.AddRow(e.Name, n, idx.NumReps(), meanRank, workSpeedup, wallSpeedup, recall)
			// The paper's log-log plot cannot show rank 0; clamp to the
			// resolution floor (one error in 10× the query count).
			plotRank := meanRank
			if plotRank <= 0 {
				plotRank = 0.1 / float64(queries.N())
			}
			xs = append(xs, plotRank)
			ys = append(ys, workSpeedup)
		}
		chart.Add(e.Name, xs, ys)
	}
	return &Output{Tables: []*stats.Table{table}, Charts: []*stats.Chart{chart}}, nil
}

// RunFig2 regenerates Figure 2: exact-search speedup over brute force per
// dataset, with n_r = RepFactor·√n (the standard setting).
func RunFig2(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	t := stats.NewTable("Figure 2: exact RBC speedup over brute force",
		"dataset", "n", "nr", "work speedup", "wall speedup", "evals/query", "reps kept/query")
	for _, e := range dataset.Catalog() {
		db, queries := workload(e, cfg, 0)
		n := db.N()
		nr := int(cfg.RepFactor * math.Sqrt(float64(n)))
		idx, err := core.BuildExact(db, euclid, core.ExactParams{
			NumReps: nr, Seed: cfg.Seed, ExactCount: true})
		if err != nil {
			return nil, err
		}
		// Timed baseline; the exactness check below stays on the per-query
		// reference.
		bruteSec := timeIt(func() { bruteforce.Search(queries, db, euclid, nil) })
		var res [][]par.Neighbor
		var st core.Stats
		rbcSec := timeIt(func() { res, st = idx.KNNBatch(queries, 1) })
		// Sanity: exact search must be exact; verify on a prefix.
		check := queries.N()
		if check > 25 {
			check = 25
		}
		for i := 0; i < check; i++ {
			want := bruteforce.SearchOne(queries.Row(i), db, euclid, nil)
			if res[i][0].Dist != want.Dist {
				return nil, fmt.Errorf("fig2: %s query %d inexact (%v vs %v)", e.Name, i, res[i][0].Dist, want.Dist)
			}
		}
		evalsPerQuery := float64(st.TotalEvals()) / float64(queries.N())
		t.AddRow(e.Name, n, idx.NumReps(),
			float64(n)/evalsPerQuery, bruteSec/rbcSec, evalsPerQuery,
			float64(st.RepsKept)/float64(queries.N()))
	}
	return &Output{Tables: []*stats.Table{t}}, nil
}

// RunTable3 regenerates Table 3: total query time for the (sequential)
// cover tree against the (parallel) exact RBC, plus the
// machine-independent distance-evaluation comparison.
func RunTable3(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	t := stats.NewTable("Table 3: Cover Tree (1 core) vs exact RBC (all cores)",
		"dataset", "n", "ct sec", "rbc sec", "ct evals/q", "rbc evals/q", "rbc speedup")
	for _, e := range dataset.Catalog() {
		db, queries := workload(e, cfg, cfg.CoverTreeCap)
		n := db.N()
		rows := db.Rows()
		tree := covertree.Build(rows, metric.Metric[[]float32](euclid))
		tree.DistEvals = 0
		ctSec := timeIt(func() {
			for i := 0; i < queries.N(); i++ {
				tree.KNN(queries.Row(i), 1)
			}
		})
		ctEvals := float64(tree.DistEvals) / float64(queries.N())

		nr := int(cfg.RepFactor * math.Sqrt(float64(n)))
		idx, err := core.BuildExact(db, euclid, core.ExactParams{
			NumReps: nr, Seed: cfg.Seed, ExactCount: true})
		if err != nil {
			return nil, err
		}
		var st core.Stats
		rbcSec := timeIt(func() { _, st = idx.KNNBatch(queries, 1) })
		rbcEvals := float64(st.TotalEvals()) / float64(queries.N())
		t.AddRow(e.Name, n, ctSec, rbcSec, ctEvals, rbcEvals, ctSec/rbcSec)
	}
	return &Output{Tables: []*stats.Table{t}}, nil
}

// fig3Factors are the representative-count multipliers (×√n) swept in
// Appendix C.
var fig3Factors = []float64{0.25, 0.5, 1, 2, 4, 8}

// RunFig3 regenerates Figure 3 (Appendix C): exact-search speedup as a
// function of the number of representatives — the paper's evidence that
// the single parameter is forgiving.
func RunFig3(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	chart := stats.NewChart("Figure 3: exact speedup vs number of representatives (log y)",
		"n_r", "work speedup")
	chart.LogY = true
	table := stats.NewTable("Figure 3 data: representative sweep",
		"dataset", "n", "nr", "work speedup", "evals/query")
	for _, e := range dataset.Catalog() {
		db, queries := workload(e, cfg, 0)
		n := db.N()
		xs := make([]float64, 0, len(fig3Factors))
		ys := make([]float64, 0, len(fig3Factors))
		for _, f := range fig3Factors {
			nr := int(f * math.Sqrt(float64(n)))
			if nr < 1 {
				nr = 1
			}
			if nr > n {
				nr = n
			}
			idx, err := core.BuildExact(db, euclid, core.ExactParams{
				NumReps: nr, Seed: cfg.Seed, ExactCount: true})
			if err != nil {
				return nil, err
			}
			_, st := idx.KNNBatch(queries, 1)
			evalsPerQuery := float64(st.TotalEvals()) / float64(queries.N())
			speedup := float64(n) / evalsPerQuery
			table.AddRow(e.Name, n, idx.NumReps(), speedup, evalsPerQuery)
			xs = append(xs, float64(idx.NumReps()))
			ys = append(ys, speedup)
		}
		chart.Add(e.Name, xs, ys)
	}
	return &Output{Tables: []*stats.Table{table}, Charts: []*stats.Chart{chart}}, nil
}
