// Benchmarks regenerating the paper's tables and figures, one benchmark
// function per artifact. These run at reduced scale so `go test -bench=.`
// finishes in minutes; use cmd/rbc-bench for the full sweeps and
// CHANGES.md for recorded results. Custom metrics:
//
//	evals/query   machine-independent work per query
//	speedup       brute-force work / RBC work (the paper's headline axis)
package rbc_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/covertree"
	"repro/internal/dataset"
	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/stats"
	"repro/internal/vec"
)

const (
	benchN       = 4000 // database size per workload
	benchQueries = 64   // queries per iteration
	benchSeed    = 20120501
)

// benchSets is the per-dataset subset used by the per-dataset benchmarks
// (the full eight-workload sweep lives in cmd/rbc-bench).
var benchSets = []string{"bio", "cov", "robot", "tiny16"}

var (
	wlMu    sync.Mutex
	wlCache = map[string][2]*vec.Dataset{}
)

// benchWorkload returns a cached (db, queries) pair for a catalog entry.
func benchWorkload(b *testing.B, name string, n int) (*vec.Dataset, *vec.Dataset) {
	b.Helper()
	key := fmt.Sprintf("%s/%d", name, n)
	wlMu.Lock()
	defer wlMu.Unlock()
	if got, ok := wlCache[key]; ok {
		return got[0], got[1]
	}
	e, err := dataset.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	all := e.Generate(n+benchQueries, benchSeed)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	qids := make([]int, benchQueries)
	for i := range qids {
		qids[i] = n + i
	}
	db, q := all.Subset(ids), all.Subset(qids)
	wlCache[key] = [2]*vec.Dataset{db, q}
	return db, q
}

var euclid = metric.Euclidean{}

// BenchmarkTable1_DatasetBuild measures workload generation plus growth-
// dimension estimation — the provenance of Table 1.
func BenchmarkTable1_DatasetBuild(b *testing.B) {
	for _, name := range benchSets {
		b.Run(name, func(b *testing.B) {
			e, err := dataset.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				db := e.Generate(2000, benchSeed)
				if db.N() != 2000 {
					b.Fatal("bad generation")
				}
			}
		})
	}
}

// BenchmarkFig1_OneShotTradeoff measures one-shot batch search at the
// n_r = s = 2√n setting and reports the work speedup and rank error that
// Figure 1 plots; that speedup is Table 2's number.
func BenchmarkFig1_OneShotTradeoff(b *testing.B) {
	for _, name := range benchSets {
		b.Run(name, func(b *testing.B) {
			db, queries := benchWorkload(b, name, benchN)
			nr := int(2 * math.Sqrt(float64(db.N())))
			idx, err := core.BuildOneShot(db, euclid, core.OneShotParams{
				NumReps: nr, S: nr, Seed: benchSeed, ExactCount: true})
			if err != nil {
				b.Fatal(err)
			}
			var st core.Stats
			var res [][]par.Neighbor
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, st = idx.KNNBatch(queries, 1)
			}
			b.StopTimer()
			evalsPerQ := float64(st.TotalEvals()) / float64(queries.N())
			b.ReportMetric(evalsPerQ, "evals/query")
			b.ReportMetric(float64(db.N())/evalsPerQ, "speedup")
			dists := make([]float64, len(res))
			for i, r := range res {
				dists[i] = r[0].Dist
			}
			b.ReportMetric(stats.MeanRank(queries, db, dists, euclid), "mean-rank")
		})
	}
}

// BenchmarkFig2_ExactSpeedup measures brute force and the exact RBC on
// the same batch — their time ratio is Figure 2's bar height.
func BenchmarkFig2_ExactSpeedup(b *testing.B) {
	for _, name := range benchSets {
		db, queries := benchWorkload(b, name, benchN)
		b.Run("brute/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bruteforce.Search(queries, db, euclid, nil)
			}
			b.ReportMetric(float64(db.N()), "evals/query")
		})
		b.Run("rbc/"+name, func(b *testing.B) {
			nr := int(2 * math.Sqrt(float64(db.N())))
			idx, err := core.BuildExact(db, euclid, core.ExactParams{
				NumReps: nr, Seed: benchSeed, ExactCount: true})
			if err != nil {
				b.Fatal(err)
			}
			var st core.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st = idx.KNNBatch(queries, 1)
			}
			b.StopTimer()
			evalsPerQ := float64(st.TotalEvals()) / float64(queries.N())
			b.ReportMetric(evalsPerQ, "evals/query")
			b.ReportMetric(float64(db.N())/evalsPerQ, "speedup")
		})
	}
}

// BenchmarkTable3_CoverTreeVsRBC measures sequential cover-tree queries
// against parallel exact-RBC queries — Table 3's two columns.
func BenchmarkTable3_CoverTreeVsRBC(b *testing.B) {
	for _, name := range benchSets {
		db, queries := benchWorkload(b, name, benchN)
		b.Run("covertree/"+name, func(b *testing.B) {
			tree := covertree.Build(db.Rows(), metric.Metric[[]float32](euclid))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for qi := 0; qi < queries.N(); qi++ {
					tree.KNN(queries.Row(qi), 1)
				}
			}
			b.StopTimer()
			tree.DistEvals = 0
			for qi := 0; qi < queries.N(); qi++ {
				tree.KNN(queries.Row(qi), 1)
			}
			b.ReportMetric(float64(tree.DistEvals)/float64(queries.N()), "evals/query")
		})
		b.Run("rbc/"+name, func(b *testing.B) {
			nr := int(2 * math.Sqrt(float64(db.N())))
			idx, err := core.BuildExact(db, euclid, core.ExactParams{
				NumReps: nr, Seed: benchSeed, ExactCount: true})
			if err != nil {
				b.Fatal(err)
			}
			var st core.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st = idx.KNNBatch(queries, 1)
			}
			b.StopTimer()
			b.ReportMetric(float64(st.TotalEvals())/float64(queries.N()), "evals/query")
		})
	}
}

// BenchmarkFig3_RepSweep measures exact-search cost across the n_r grid
// of Appendix C on one representative workload.
func BenchmarkFig3_RepSweep(b *testing.B) {
	db, queries := benchWorkload(b, "robot", benchN)
	for _, factor := range []float64{0.5, 1, 2, 4} {
		nr := int(factor * math.Sqrt(float64(db.N())))
		b.Run(fmt.Sprintf("nr=%d", nr), func(b *testing.B) {
			idx, err := core.BuildExact(db, euclid, core.ExactParams{
				NumReps: nr, Seed: benchSeed, ExactCount: true})
			if err != nil {
				b.Fatal(err)
			}
			var st core.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st = idx.KNNBatch(queries, 1)
			}
			b.StopTimer()
			evalsPerQ := float64(st.TotalEvals()) / float64(queries.N())
			b.ReportMetric(evalsPerQ, "evals/query")
			b.ReportMetric(float64(db.N())/evalsPerQ, "speedup")
		})
	}
}

// BenchmarkBuild measures index construction — the one-time cost the
// paper's §4 notes is itself a single parallel brute-force call.
func BenchmarkBuild(b *testing.B) {
	db, _ := benchWorkload(b, "robot", benchN)
	nr := int(2 * math.Sqrt(float64(db.N())))
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.BuildExact(db, euclid, core.ExactParams{
				NumReps: nr, Seed: benchSeed, ExactCount: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("oneshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.BuildOneShot(db, euclid, core.OneShotParams{
				NumReps: nr, S: nr, Seed: benchSeed, ExactCount: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
