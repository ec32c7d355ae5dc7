package harness

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distributed"
	"repro/internal/stats"
)

// This file holds the experiments beyond the paper's figures: the
// ablations its text motivates and the extensions its conclusion
// proposes. `rbc-bench -list` names them all.

// RunAblationBounds quantifies the §6 remark that "the simultaneous use
// of both inequalities improved the empirical performance": per-query
// work with rule (1), rule (2), and both, each over the admissible
// windows of the kept lists.
func RunAblationBounds(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	t := stats.NewTable("Ablation: pruning rules (evals per query)",
		"dataset", "psi only", "triple only", "both")
	variants := []core.ExactParams{
		{PrunePsi: true},
		{PruneTriple: true},
		{PrunePsi: true, PruneTriple: true},
	}
	for _, e := range dataset.Catalog() {
		db, queries := workload(e, cfg, 0)
		n := db.N()
		nr := int(cfg.RepFactor * math.Sqrt(float64(n)))
		row := make([]interface{}, 0, 4)
		row = append(row, e.Name)
		for _, v := range variants {
			v.NumReps, v.Seed, v.ExactCount = nr, cfg.Seed, true
			idx, err := core.BuildExact(db, euclid, v)
			if err != nil {
				return nil, err
			}
			_, st := idx.KNNBatch(queries, 1)
			row = append(row, float64(st.TotalEvals())/float64(queries.N()))
		}
		t.AddRow(row...)
	}
	return &Output{Tables: []*stats.Table{t}}, nil
}

// RunScaling measures exact-RBC batch query throughput against
// GOMAXPROCS — the "48-core machine" axis of §7.2, which reports real
// scaling only when run on a multicore host. The previous GOMAXPROCS is
// restored on exit.
func RunScaling(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	e, err := dataset.ByName("robot")
	if err != nil {
		return nil, err
	}
	db, queries := workload(e, cfg, 0)
	nr := int(cfg.RepFactor * math.Sqrt(float64(db.N())))
	idx, err := core.BuildExact(db, euclid, core.ExactParams{
		NumReps: nr, Seed: cfg.Seed, ExactCount: true})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(fmt.Sprintf("Scaling: robot workload, n=%d, host cores=%d", db.N(), prev),
		"GOMAXPROCS", "queries/sec", "speedup vs 1")
	var base float64
	for p := 1; p <= prev; p *= 2 {
		runtime.GOMAXPROCS(p)
		sec := timeIt(func() { idx.KNNBatch(queries, 1) })
		qps := float64(queries.N()) / sec
		if p == 1 {
			base = qps
		}
		t.AddRow(p, qps, qps/base)
		if p == prev {
			break
		}
		if 2*p > prev {
			runtime.GOMAXPROCS(prev)
			sec := timeIt(func() { idx.KNNBatch(queries, 1) })
			qps := float64(queries.N()) / sec
			t.AddRow(prev, qps, qps/base)
			break
		}
	}
	return &Output{Tables: []*stats.Table{t}}, nil
}

// RunDistributed evaluates the §8 proposal: representative-sharded RBC
// routing vs broadcast brute force across shard counts, reporting
// communication and simulated latency.
func RunDistributed(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	e, err := dataset.ByName("robot")
	if err != nil {
		return nil, err
	}
	db, queries := workload(e, cfg, 0)
	nr := int(cfg.RepFactor * math.Sqrt(float64(db.N())))
	t := stats.NewTable(fmt.Sprintf("Distributed RBC (robot, n=%d): routed vs broadcast", db.N()),
		"shards", "mode", "shards/query", "evals/query", "KB/query", "sim ms/query")
	for _, shards := range []int{1, 2, 4, 8, 16} {
		cl, err := distributed.Build(db, euclid, core.ExactParams{
			NumReps: nr, Seed: cfg.Seed, ExactCount: true}, shards, distributed.DefaultCostModel())
		if err != nil {
			return nil, err
		}
		var routed, broadcast distributed.QueryMetrics
		for i := 0; i < queries.N(); i++ {
			r, mr, errR := cl.KNN(queries.Row(i), 1)
			b, mb, errB := cl.QueryBroadcast(queries.Row(i))
			if errR != nil || errB != nil || r[0].Dist != b[0].Dist {
				cl.Close()
				return nil, fmt.Errorf("distributed: routed answer diverged at query %d", i)
			}
			routed.Add(mr)
			broadcast.Add(mb)
		}
		cl.Close()
		q := float64(queries.N())
		t.AddRow(shards, "routed",
			float64(routed.ShardsContacted)/q, float64(routed.Evals)/q,
			float64(routed.Bytes)/q/1024, routed.SimTimeUS/q/1000)
		t.AddRow(shards, "broadcast",
			float64(broadcast.ShardsContacted)/q, float64(broadcast.Evals)/q,
			float64(broadcast.Bytes)/q/1024, broadcast.SimTimeUS/q/1000)
	}
	return &Output{Tables: []*stats.Table{t}}, nil
}

// RunDistBatch measures what the tiled, batched shard scans buy on the
// distributed cluster: the same k-NN workload driven one query at a time
// versus as whole blocks, reporting wall-clock throughput alongside the
// messaging and simulated-latency amortization. Results are bit-identical
// between the two modes by the shard-scan contract, so the table is a
// pure cost comparison.
func RunDistBatch(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	e, err := dataset.ByName("robot")
	if err != nil {
		return nil, err
	}
	db, queries := workload(e, cfg, 0)
	nr := int(cfg.RepFactor * math.Sqrt(float64(db.N())))
	const shards = 8
	cl, err := distributed.Build(db, euclid, core.ExactParams{
		NumReps: nr, Seed: cfg.Seed, ExactCount: true}, shards, distributed.DefaultCostModel())
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	t := stats.NewTable(
		fmt.Sprintf("Distributed batch scans (robot, n=%d, %d shards): per-query vs block fan-out", db.N(), shards),
		"k", "mode", "queries/sec", "msgs/query", "evals/query", "sim ms/query")
	q := float64(queries.N())
	for _, k := range []int{1, 10} {
		var perQuery distributed.QueryMetrics
		perSec := timeIt(func() {
			for i := 0; i < queries.N(); i++ {
				_, m, _ := cl.KNN(queries.Row(i), k)
				perQuery.Add(m)
			}
		})
		var batch distributed.QueryMetrics
		batchSec := timeIt(func() {
			_, batch, _ = cl.KNNBatch(queries, k)
		})
		t.AddRow(k, "per-query", q/perSec,
			float64(perQuery.Messages)/q, float64(perQuery.Evals)/q, perQuery.SimTimeUS/q/1000)
		t.AddRow(k, "batched", q/batchSec,
			float64(batch.Messages)/q, float64(batch.Evals)/q, batch.SimTimeUS/q/1000)
	}
	return &Output{Tables: []*stats.Table{t}}, nil
}

// RunAblationApprox sweeps the (1+ε)-approximate exact variant
// (footnote 1 of the paper): work saved and worst observed error ratio
// against the true NN as ε grows.
func RunAblationApprox(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	t := stats.NewTable("Ablation: (1+eps)-approximate exact search",
		"dataset", "eps", "evals/query", "work vs exact", "mean ratio", "max ratio")
	for _, name := range []string{"robot", "tiny8"} {
		e, err := dataset.ByName(name)
		if err != nil {
			return nil, err
		}
		db, queries := workload(e, cfg, 0)
		nr := int(cfg.RepFactor * math.Sqrt(float64(db.N())))
		want := bruteforce.Search(queries, db, euclid, nil)
		var exactEvals float64
		for _, eps := range []float64{0, 0.25, 1, 3} {
			idx, err := core.BuildExact(db, euclid, core.ExactParams{
				NumReps: nr, Seed: cfg.Seed, ExactCount: true, ApproxEps: eps})
			if err != nil {
				return nil, err
			}
			res, st := idx.KNNBatch(queries, 1)
			evals := float64(st.TotalEvals()) / float64(queries.N())
			if eps == 0 {
				exactEvals = evals
			}
			var sum, worst float64
			count := 0
			for i := range res {
				if want[i].Dist == 0 {
					continue
				}
				r := res[i][0].Dist / want[i].Dist
				sum += r
				count++
				if r > worst {
					worst = r
				}
				if r > 1+eps+1e-9 {
					return nil, fmt.Errorf("approx guarantee violated: ratio %v at eps %v", r, eps)
				}
			}
			mean := 1.0
			if count > 0 {
				mean = sum / float64(count)
			}
			t.AddRow(name, eps, evals, evals/exactEvals, mean, worst)
		}
	}
	return &Output{Tables: []*stats.Table{t}}, nil
}
