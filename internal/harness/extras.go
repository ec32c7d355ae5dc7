package harness

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/covertree"
	"repro/internal/dataset"
	"repro/internal/distributed"
	"repro/internal/gpusim"
	"repro/internal/kdtree"
	"repro/internal/lsh"
	"repro/internal/metric"
	"repro/internal/stats"
)

// This file holds the experiments beyond the paper's figures: the
// ablations its text motivates and the extensions its conclusion
// proposes. See DESIGN.md §2 "Extra experiments".

// RunAblationBounds quantifies the §6 remark that "the simultaneous use
// of both inequalities improved the empirical performance": per-query
// work with rule (1), rule (2), and both.
func RunAblationBounds(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	t := stats.NewTable("Ablation: pruning rules (evals per query)",
		"dataset", "psi only", "triple only", "both", "both+window")
	variants := []core.ExactParams{
		{PrunePsi: true},
		{PruneTriple: true},
		{PrunePsi: true, PruneTriple: true},
		{PrunePsi: true, PruneTriple: true, EarlyExit: true},
	}
	for _, e := range dataset.Catalog() {
		db, queries := workload(e, cfg, 0)
		n := db.N()
		nr := int(cfg.RepFactor * math.Sqrt(float64(n)))
		row := make([]interface{}, 0, 5)
		row = append(row, e.Name)
		for _, v := range variants {
			v.NumReps, v.Seed, v.ExactCount = nr, cfg.Seed, true
			idx, err := core.BuildExact(db, euclid, v)
			if err != nil {
				return nil, err
			}
			_, st := idx.Search(queries)
			row = append(row, float64(st.TotalEvals())/float64(queries.N()))
		}
		t.AddRow(row...)
	}
	return &Output{Tables: []*stats.Table{t}}, nil
}

// RunAblationEarlyExit isolates the sorted-list admissible-window
// refinement (Claim 2): same index, window on vs off.
func RunAblationEarlyExit(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	t := stats.NewTable("Ablation: admissible window (Claim 2)",
		"dataset", "evals/q (off)", "evals/q (on)", "reduction")
	for _, e := range dataset.Catalog() {
		db, queries := workload(e, cfg, 0)
		nr := int(cfg.RepFactor * math.Sqrt(float64(db.N())))
		run := func(early bool) float64 {
			idx, err := core.BuildExact(db, euclid, core.ExactParams{
				NumReps: nr, Seed: cfg.Seed, ExactCount: true, EarlyExit: early})
			if err != nil {
				return math.NaN()
			}
			_, st := idx.Search(queries)
			return float64(st.TotalEvals()) / float64(queries.N())
		}
		off, on := run(false), run(true)
		t.AddRow(e.Name, off, on, fmt.Sprintf("%.1f%%", 100*(off-on)/off))
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
		NumReps: nr, Seed: cfg.Seed, ExactCount: true, EarlyExit: true})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(fmt.Sprintf("Scaling: robot workload, n=%d, host cores=%d", db.N(), prev),
		"GOMAXPROCS", "queries/sec", "speedup vs 1")
	var base float64
	for p := 1; p <= prev; p *= 2 {
		runtime.GOMAXPROCS(p)
		sec := timeIt(func() { idx.Search(queries) })
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
			sec := timeIt(func() { idx.Search(queries) })
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
			r, mr, _ := cl.Query(queries.Row(i))
			b, mb, _ := cl.QueryBroadcast(queries.Row(i))
			if r.Dist != b.Dist {
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

// RunDistWindow measures the shard-side EarlyExit windows: the same
// routed k-NN block workload on a full-scan cluster versus one whose
// segments are sorted and whose requests ship per-(query, segment)
// admissible windows. Answers are bit-identical by the window contract
// (verified here per block), so the table is a pure cost comparison:
// shard PointEvals saved against the 16-byte-per-window protocol
// overhead.
func RunDistWindow(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	e, err := dataset.ByName("robot")
	if err != nil {
		return nil, err
	}
	db, queries := workload(e, cfg, 0)
	nr := int(cfg.RepFactor * math.Sqrt(float64(db.N())))
	const shards = 8
	prm := core.ExactParams{NumReps: nr, Seed: cfg.Seed, ExactCount: true}
	full, err := distributed.Build(db, euclid, prm, shards, distributed.DefaultCostModel())
	if err != nil {
		return nil, err
	}
	defer full.Close()
	prm.EarlyExit = true
	win, err := distributed.Build(db, euclid, prm, shards, distributed.DefaultCostModel())
	if err != nil {
		return nil, err
	}
	defer win.Close()
	t := stats.NewTable(
		fmt.Sprintf("Distributed EarlyExit windows (robot, n=%d, %d shards): full scan vs windowed", db.N(), shards),
		"k", "mode", "point evals/query", "evals ratio", "window KB/query", "empty windows/query")
	q := float64(queries.N())
	for _, k := range []int{1, 10} {
		fres, fm, _ := full.KNNBatch(queries, k)
		wres, wm, _ := win.KNNBatch(queries, k)
		for i := range fres {
			for p := range fres[i] {
				if fres[i][p] != wres[i][p] {
					return nil, fmt.Errorf("dist-window: windowed answer diverged at query %d pos %d", i, p)
				}
			}
		}
		t.AddRow(k, "full-scan", float64(fm.PointEvals)/q, 1.0, 0.0, 0.0)
		t.AddRow(k, "windowed", float64(wm.PointEvals)/q,
			float64(wm.PointEvals)/float64(fm.PointEvals),
			float64(wm.Windows)*distributed.WindowBytes/q/1024, float64(wm.EmptyWindows)/q)
	}
	return &Output{Tables: []*stats.Table{t}}, nil
}

// RunBaselines compares every implemented search structure on one low-
// and one higher-dimensional workload — quantifying §7.1's remark that
// "in very low-dimensional spaces, basic data structures like kd-trees
// are extremely effective, hence the challenging cases are data that is
// somewhat higher dimensional".
func RunBaselines(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	t := stats.NewTable("Baselines: distance evaluations per query (lower is better)",
		"dataset", "dim", "brute", "kdtree", "covertree", "rbc exact")
	for _, name := range []string{"tiny4", "bio"} {
		e, err := dataset.ByName(name)
		if err != nil {
			return nil, err
		}
		db, queries := workload(e, cfg, cfg.CoverTreeCap)
		n := db.N()
		q := float64(queries.N())

		kt := kdtree.Build(db, 16)
		for i := 0; i < queries.N(); i++ {
			kt.NN(queries.Row(i))
		}
		ktEvals := float64(kt.DistEvals) / q

		ct := covertree.Build(db.Rows(), metric.Metric[[]float32](euclid))
		ct.DistEvals = 0
		for i := 0; i < queries.N(); i++ {
			ct.NN(queries.Row(i))
		}
		ctEvals := float64(ct.DistEvals) / q

		nr := int(cfg.RepFactor * math.Sqrt(float64(n)))
		idx, err := core.BuildExact(db, euclid, core.ExactParams{
			NumReps: nr, Seed: cfg.Seed, ExactCount: true, EarlyExit: true})
		if err != nil {
			return nil, err
		}
		_, st := idx.Search(queries)
		t.AddRow(name, db.Dim, n, ktEvals, ctEvals, float64(st.TotalEvals())/q)
	}
	return &Output{Tables: []*stats.Table{t}}, nil
}

// RunLSHCompare puts the one-shot RBC against locality-sensitive hashing
// — the other sublinear line of work §2 discusses. Both are approximate;
// the table reports recall and work side by side across parameter
// settings, illustrating the paper's point that LSH's behaviour is
// parameter-sensitive while the RBC has a single forgiving knob.
func RunLSHCompare(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	t := stats.NewTable("One-shot RBC vs E2LSH (approximate 1-NN)",
		"dataset", "method", "params", "recall", "evals/query")
	euclidM := euclid
	for _, name := range []string{"robot", "tiny8"} {
		e, err := dataset.ByName(name)
		if err != nil {
			return nil, err
		}
		db, queries := workload(e, cfg, 0)
		n := db.N()
		want := bruteforce.Search(queries, db, euclidM, nil)
		truth := make([]float64, queries.N())
		for i, r := range want {
			truth[i] = r.Dist
		}
		for _, f := range []float64{1, 2, 4} {
			nr := int(f * math.Sqrt(float64(n)))
			idx, err := core.BuildOneShot(db, euclidM, core.OneShotParams{
				NumReps: nr, S: nr, Seed: cfg.Seed, ExactCount: true})
			if err != nil {
				return nil, err
			}
			res, st := idx.Search(queries)
			correct := 0
			for i := range res {
				if res[i].Dist == truth[i] {
					correct++
				}
			}
			t.AddRow(name, "rbc-oneshot", fmt.Sprintf("nr=s=%d", nr),
				float64(correct)/float64(len(res)),
				float64(st.TotalEvals())/float64(queries.N()))
		}
		for _, p := range []lsh.Params{
			{L: 4, K: 8}, {L: 8, K: 12}, {L: 16, K: 16},
		} {
			p.Seed = cfg.Seed
			idx, err := lsh.Build(db, p)
			if err != nil {
				return nil, err
			}
			res, evals := idx.Search(queries)
			correct := 0
			for i := range res {
				if res[i].ID >= 0 && res[i].Dist == truth[i] {
					correct++
				}
			}
			t.AddRow(name, "lsh", fmt.Sprintf("L=%d K=%d", p.L, p.K),
				float64(correct)/float64(len(res)),
				float64(evals)/float64(queries.N()))
		}
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
				NumReps: nr, Seed: cfg.Seed, ExactCount: true, EarlyExit: true, ApproxEps: eps})
			if err != nil {
				return nil, err
			}
			res, st := idx.Search(queries)
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
				r := res[i].Dist / want[i].Dist
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

// RunGPUDivergence contrasts a data-dependent tree-walk kernel with a
// uniform kernel of identical depth on the SIMT simulator — the
// quantitative backing for §3's claim that conditional tree search
// under-utilizes vector hardware.
func RunGPUDivergence(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	dev, err := gpusim.NewDevice(gpusim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	e, _ := dataset.ByName("tiny8")
	sub := cfg
	if sub.Queries < 256 {
		sub.Queries = 256
	}
	_, queries := workload(e, sub, cfg.GPUCap)
	t := stats.NewTable("SIMT divergence ablation (equal depth, equal loads)",
		"kernel", "depth", "Mcycles", "divergence ratio", "tx per load")
	for _, depth := range []int{8, 16, 32} {
		_, stTree := gpusim.TreeWalk(dev, queries, gpusim.TreeWalkConfig{Depth: depth})
		_, stUni := gpusim.UniformScan(dev, queries, depth)
		loads := float64(stTree.WarpsLaunched) * float64(depth)
		t.AddRow("tree-walk", depth, float64(stTree.Cycles)/1e6,
			stTree.DivergenceRatio(), float64(stTree.MemTransactions)/loads)
		loadsU := float64(stUni.WarpsLaunched) * float64(depth)
		t.AddRow("uniform", depth, float64(stUni.Cycles)/1e6,
			stUni.DivergenceRatio(), float64(stUni.MemTransactions)/loadsU)
	}
	return &Output{Tables: []*stats.Table{t}}, nil
}
