// Package harness defines the runnable experiments that regenerate every
// table and figure of the paper's evaluation (§7), plus the ablations and
// extensions documented in DESIGN.md. Each experiment is a pure function
// of a Config, producing text tables and ASCII charts; cmd/rbc-bench is a
// thin CLI over the registry.
package harness

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/vec"
)

// Config scales the experiments. The paper's sizes (Table 1) correspond
// to Scale = 1; the defaults target commodity hardware while preserving
// the √n parameter couplings, so the *shapes* of all results carry over.
type Config struct {
	// Scale multiplies each workload's paper size (default 0.01).
	Scale float64
	// Queries is the number of test queries per run (default 200).
	Queries int
	// Seed drives every random component.
	Seed int64
	// RepFactor multiplies √n when choosing n_r for exact search
	// (default 2; stands in for the unknown c^{3/2} constant).
	RepFactor float64
	// GPUCap bounds the database size used on the SIMT simulator, which
	// pays a large constant per simulated lane-op (default 3000).
	GPUCap int
	// CoverTreeCap bounds the database size for cover-tree comparisons
	// (sequential builds; default 30000).
	CoverTreeCap int
	// QuantSweepCap bounds the largest database size the quant-sweep
	// experiment materializes (default 1,000,000 — the memory-bound
	// regime the sweep exists to measure; tests set it low).
	QuantSweepCap int
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.01
	}
	if c.Queries <= 0 {
		c.Queries = 200
	}
	if c.Seed == 0 {
		c.Seed = 20120501 // IPPS 2012
	}
	if c.RepFactor <= 0 {
		c.RepFactor = 2
	}
	if c.GPUCap <= 0 {
		c.GPUCap = 3000
	}
	if c.CoverTreeCap <= 0 {
		c.CoverTreeCap = 30000
	}
	if c.QuantSweepCap <= 0 {
		c.QuantSweepCap = 1_000_000
	}
	return c
}

// Output carries an experiment's rendered results.
type Output struct {
	Tables []*stats.Table
	Charts []*stats.Chart
}

// Experiment is a registered, runnable reproduction unit.
type Experiment struct {
	// ID is the CLI name (fig1, table2, …).
	ID string
	// Title is the paper artifact it regenerates.
	Title string
	// Description explains what is measured.
	Description string
	// Run executes the experiment.
	Run func(cfg Config) (*Output, error)
}

// Registry lists all experiments: the paper's five artifacts first, then
// the ablations/extensions.
func Registry() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table 1: dataset overview",
			Description: "sizes, dimensions and estimated growth dimension of the workloads",
			Run:         RunTable1},
		{ID: "fig1", Title: "Figure 1: one-shot speedup vs rank error",
			Description: "log-log tradeoff sweep of n_r = s for the one-shot algorithm",
			Run:         RunFig1},
		{ID: "fig2", Title: "Figure 2: exact-search speedup over brute force",
			Description: "per-dataset speedup of the exact RBC (work ratio and wall clock)",
			Run:         RunFig2},
		{ID: "table2", Title: "Table 2: GPU one-shot speedup over GPU brute force",
			Description: "simulated-cycle ratio on the SIMT device model",
			Run:         RunTable2},
		{ID: "table3", Title: "Table 3: Cover Tree vs exact RBC",
			Description: "total query time, sequential cover tree vs parallel RBC",
			Run:         RunTable3},
		{ID: "fig3", Title: "Figure 3: exact-search speedup vs number of representatives",
			Description: "parameter-stability sweep of n_r (Appendix C)",
			Run:         RunFig3},
		{ID: "ablation-bounds", Title: "Ablation: pruning bounds (1), (2) and both",
			Description: "work per query with each pruning rule in isolation (§6 remark)",
			Run:         RunAblationBounds},
		{ID: "ablation-earlyexit", Title: "Ablation: sorted lists + admissible window",
			Description: "effect of the Claim 2 early-exit refinement",
			Run:         RunAblationEarlyExit},
		{ID: "ablation-approx", Title: "Ablation: (1+eps)-approximate exact search",
			Description: "footnote-1 variant: work saved vs observed error ratio",
			Run:         RunAblationApprox},
		{ID: "scaling", Title: "Extension: thread-count scaling",
			Description: "exact RBC throughput vs GOMAXPROCS (flat on single-core hosts)",
			Run:         RunScaling},
		{ID: "distributed", Title: "Extension (§8): representative-sharded cluster",
			Description: "routed RBC vs broadcast brute force on a simulated cluster",
			Run:         RunDistributed},
		{ID: "dist-batch", Title: "Extension (§8): tiled batched shard scans",
			Description: "distributed k-NN per-query vs block fan-out (throughput + message amortization)",
			Run:         RunDistBatch},
		{ID: "dist-window", Title: "Extension (§8): shard-side EarlyExit windows",
			Description: "sorted shard segments + per-(query, segment) admissible windows: PointEvals saved vs protocol bytes",
			Run:         RunDistWindow},
		{ID: "gpu-divergence", Title: "Extension: SIMT divergence ablation",
			Description: "why conditional tree search under-utilizes vector hardware (§3)",
			Run:         RunGPUDivergence},
		{ID: "baselines", Title: "Extension: kd-tree / cover tree / RBC comparison",
			Description: "per-query work of every implemented structure (§7.1 remark)",
			Run:         RunBaselines},
		{ID: "lsh-compare", Title: "Extension: one-shot RBC vs locality-sensitive hashing",
			Description: "recall and work of the two approximate schemes (§2 discussion)",
			Run:         RunLSHCompare},
		{ID: "quant-sweep", Title: "Extension: int8 two-pass vs exact brute force (memory-bound crossover)",
			Description: "exact float32 SearchK vs the int8 two-pass scan at dims {21, 64} × n {50k, 1M} (§3's bandwidth argument on the CPU)",
			Run:         RunQuantSweep},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0, 16)
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q (have %v)", id, ids)
}

// workload materializes a catalog entry at the configured scale and
// splits off the query set, which therefore follows the data
// distribution, as in the paper (queries held out of the database).
func workload(e dataset.Entry, cfg Config, cap int) (db, queries *vec.Dataset) {
	n := e.ScaledN(cfg.Scale)
	if cap > 0 && n > cap {
		n = cap
	}
	all := e.Generate(n+cfg.Queries, cfg.Seed)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	qids := make([]int, cfg.Queries)
	for i := range qids {
		qids[i] = n + i
	}
	return all.Subset(ids), all.Subset(qids)
}

// timeIt runs f once and reports elapsed wall-clock seconds.
func timeIt(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}
