package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/par"
	"repro/internal/vec"
)

// counts is the work one call reports, in the units both entry points
// share: core.Stats from Exact, QueryMetrics from Cluster.
type counts struct {
	repEvals, pointEvals   int64
	repsKept, psi, triple  int64 // Exact only
	windows, emptyWin      int64 // Cluster only
	requests, failedShards int64 // Cluster only
	queries, batches       int64
}

func (c *counts) add(o counts) {
	c.repEvals += o.repEvals
	c.pointEvals += o.pointEvals
	c.repsKept += o.repsKept
	c.psi += o.psi
	c.triple += o.triple
	c.windows += o.windows
	c.emptyWin += o.emptyWin
	c.requests += o.requests
	c.failedShards += o.failedShards
	c.queries += o.queries
	c.batches += o.batches
}

func (c counts) evalsPerQuery() float64 {
	return float64(c.repEvals+c.pointEvals) / float64(c.queries)
}

// target is the pair of entry points a round drives: the block path and
// the single-request path of one index.
type target interface {
	batch(q *vec.Dataset, k int) ([][]par.Neighbor, counts, error)
	one(q []float32, k int) ([]par.Neighbor, counts, error)
}

type exactTarget struct{ idx *core.Exact }

func fromStats(st core.Stats, queries int64) counts {
	return counts{repEvals: st.RepEvals, pointEvals: st.PointEvals, repsKept: st.RepsKept,
		psi: st.PrunedPsi, triple: st.PrunedTriple, queries: queries}
}

func (t exactTarget) batch(q *vec.Dataset, k int) ([][]par.Neighbor, counts, error) {
	nbs, st := t.idx.KNNBatch(q, k)
	return nbs, fromStats(st, int64(q.N())), nil
}

func (t exactTarget) one(q []float32, k int) ([]par.Neighbor, counts, error) {
	nbs, st := t.idx.KNN(q, k)
	return nbs, fromStats(st, 1), nil
}

type clusterTarget struct{ cl *distributed.Cluster }

func fromQueryMetrics(qm distributed.QueryMetrics, queries int64) counts {
	return counts{repEvals: qm.RepEvals, pointEvals: qm.PointEvals, windows: qm.Windows, emptyWin: qm.EmptyWindows,
		requests: int64(qm.ShardsContacted), failedShards: int64(qm.FailedShards), queries: queries}
}

func (t clusterTarget) batch(q *vec.Dataset, k int) ([][]par.Neighbor, counts, error) {
	nbs, qm, err := t.cl.KNNBatch(q, k)
	return nbs, fromQueryMetrics(qm, int64(q.N())), err
}

func (t clusterTarget) one(q []float32, k int) ([]par.Neighbor, counts, error) {
	nbs, qm, err := t.cl.KNN(q, k)
	return nbs, fromQueryMetrics(qm, 1), err
}

// roundStats is what the timed rounds of one phase produced.
type roundStats struct {
	blockNS   []float64 // one per round: the block call alone
	singleNS  []float64 // spec.single per round
	work      counts    // block and single calls
	blockWork counts    // block calls alone
	first     int       // index of the first round: which input each sample repeats
	w         *world
}

// roundHook lets the traced run add spans to a round: it is called after
// the round's own calls with the round's root span and block.
type roundHook func(round, root int, blk *vec.Dataset)

// runRounds drives the fixed-work rounds [first, first+n) through t: one
// block call and spec.single single-query calls each, inputs in the
// world's seeded order. Callers run the warm-up rounds as a call of their
// own and drop its result.
func runRounds(t target, w *world, layer string, first, n int, tr *tracer, hook roundHook) (roundStats, error) {
	s := w.spec
	rs := roundStats{first: first, w: w}
	for r := first; r < first+n; r++ {
		blk := w.blocks[r%len(w.blocks)]
		root := tr.begin(0, r+1, "bench", "round")
		t0 := time.Now()
		call := tr.begin(root, r+1, layer, layer+".KNNBatch")
		if tr != nil {
			tr.cur.Store(int64(call))
			tr.curReq.Store(int64(r + 1))
		}
		_, bc, err := t.batch(blk, s.k)
		tr.end(call)
		t1 := time.Now()
		if err != nil {
			return rs, fmt.Errorf("round %d: KNNBatch: %w", r, err)
		}
		bc.batches = 1
		var sc counts
		for i := 0; i < s.single; i++ {
			q := w.pool.Row(w.singles[(r*s.single+i)%len(w.singles)])
			call := tr.begin(root, r+1, layer, layer+".KNN")
			if tr != nil {
				tr.cur.Store(int64(call))
			}
			q0 := time.Now()
			_, c, err := t.one(q, s.k)
			d := time.Since(q0)
			tr.end(call)
			if err != nil {
				return rs, fmt.Errorf("round %d: KNN: %w", r, err)
			}
			sc.add(c)
			rs.singleNS = append(rs.singleNS, float64(d.Nanoseconds()))
		}
		if tr != nil {
			tr.cur.Store(0)
		}
		rs.blockNS = append(rs.blockNS, float64(t1.Sub(t0).Nanoseconds()))
		rs.blockWork.add(bc)
		rs.work.add(bc)
		rs.work.add(sc)
		if hook != nil {
			hook(r, root, blk)
		}
		tr.end(root)
	}
	return rs, nil
}

// blockTime is the block call's time, ns: the median over distinct blocks
// of each block's best repetition.
func (rs roundStats) blockTime() float64 {
	return bestPerInput(rs.blockNS, rs.first, len(rs.w.blocks))
}

// singleTime is the single-request path's time, ns, estimated the same way
// over distinct queries.
func (rs roundStats) singleTime() float64 {
	return bestPerInput(rs.singleNS, rs.first*rs.w.spec.single, len(rs.w.singles))
}

// qps is ops per round ÷ block time: the throughput of every block-driven
// workload.
func (rs roundStats) qps() float64 { return float64(rs.w.spec.block) / (rs.blockTime() / 1e9) }

// sameAnswers counts the rows of got that differ from want in any id or in
// any bit of any distance — the repo's bit-identity contract.
func sameAnswers(got, want [][]par.Neighbor) (mismatched int64) {
	if len(got) != len(want) {
		return int64(max(len(got), len(want)))
	}
	for i := range want {
		if !sameRow(got[i], want[i]) {
			mismatched++
		}
	}
	return mismatched
}

func sameRow(got, want []par.Neighbor) bool {
	if len(got) != len(want) {
		return false
	}
	for j := range want {
		if got[j].ID != want[j].ID || got[j].Dist != want[j].Dist {
			return false
		}
	}
	return true
}
