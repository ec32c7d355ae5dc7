package core

import (
	"fmt"

	"repro/internal/bruteforce"
	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/vec"
)

// OneShotParams configures BuildOneShot.
type OneShotParams struct {
	// NumReps is the expected number of representatives n_r. Zero selects
	// DefaultNumReps(n).
	NumReps int
	// S is the ownership-list size: each representative owns its S nearest
	// database points. Zero selects S = NumReps, the paper's n_r = s
	// setting (Theorem 2).
	S int
	// Seed drives representative sampling.
	Seed int64
	// ExactCount samples exactly NumReps representatives instead of the
	// paper's independent-inclusion scheme.
	ExactCount bool
}

func (p OneShotParams) withDefaults(n int) OneShotParams {
	if p.NumReps <= 0 {
		p.NumReps = DefaultNumReps(n)
	}
	if p.S <= 0 {
		p.S = p.NumReps
	}
	if p.S > n {
		p.S = n
	}
	return p
}

// OneShot is the RBC index for the one-shot search algorithm (§5.1): each
// representative owns its s nearest database points (lists overlap), and a
// query scans exactly one ownership list — that of its nearest
// representative. The answer is exact with probability ≥ 1−δ when
// n_r = s = c·sqrt(n·ln(1/δ)) (Theorem 2).
//
// Both phases — the nearest-representative scan and the list scan whose
// distances are the reported answers — run on the exact
// kernel, bit-compatible with the brute-force reference, and defer the
// sqrt to the API boundary.
type OneShot struct {
	db  *vec.Dataset
	m   metric.Metric[[]float32]
	ker *metric.Kernel // exact kernel: both phases
	prm OneShotParams

	repIDs  []int
	repData *vec.Dataset
	radii   []float64 // ψ_r = distance from r to its s-th neighbor

	// Ownership lists, gathered: list j occupies ids[j*s:(j+1)*s] and the
	// matching rows of gather. Lists overlap, so gather duplicates rows by
	// design — the price of one-shot's single-list scan.
	s      int
	ids    []int32
	gather []float32
}

// initKernel resolves the exact kernel both phases run on; called at
// build and load time.
func (o *OneShot) initKernel() { o.ker = metric.NewKernel(o.m) }

// BuildOneShot constructs the one-shot RBC over db. The build is the
// single brute-force call BF(R,X) (§4) — each representative finds its s
// nearest database points — computed with the tiled multi-query kernels.
func BuildOneShot(db *vec.Dataset, m metric.Metric[[]float32], prm OneShotParams) (*OneShot, error) {
	n := db.N()
	if err := validateBuildInputs(n, db.Dim); err != nil {
		return nil, err
	}
	prm = prm.withDefaults(n)
	rng := newRand(prm.Seed)
	repIDs := sampleReps(n, prm.NumReps, prm.ExactCount, rng)
	nr := len(repIDs)
	repData := db.Subset(repIDs)
	s := prm.S

	o := &OneShot{
		db: db, m: m, prm: prm,
		repIDs: repIDs, repData: repData,
		s:      s,
		radii:  make([]float64, nr),
		ids:    make([]int32, nr*s),
		gather: make([]float32, nr*s*db.Dim),
	}
	// BF(R,X): the s nearest database points of every representative, as a
	// single tiled multi-query call.
	lists := bruteforce.SearchK(repData, db, s, m, nil)
	par.ForEach(nr, 1, func(j int) {
		nbs := lists[j]
		for i, nb := range nbs {
			pos := j*s + i
			o.ids[pos] = int32(nb.ID)
			copy(o.gather[pos*db.Dim:(pos+1)*db.Dim], db.Row(nb.ID))
		}
		o.radii[j] = nbs[len(nbs)-1].Dist
	})
	o.initKernel()
	return o, nil
}

// NumReps reports the realized number of representatives |R|.
func (o *OneShot) NumReps() int { return len(o.repIDs) }

// S reports the ownership-list size.
func (o *OneShot) S() int { return o.s }

// RepIDs returns the database ids of the representatives (do not modify).
func (o *OneShot) RepIDs() []int { return o.repIDs }

// Radii returns ψ_r per representative (do not modify).
func (o *OneShot) Radii() []float64 { return o.radii }

// Params returns the parameters the index was built with.
func (o *OneShot) Params() OneShotParams { return o.prm }

// KNN returns the (probabilistically correct) k nearest neighbors of q,
// sorted by ascending distance: BF(q,R) finds the nearest representative
// r, then BF(q, X[L_r]) scans its ownership list. k = 1 is the paper's
// one-shot 1-NN search.
func (o *OneShot) KNN(q []float32, k int) ([]par.Neighbor, Stats) {
	if k <= 0 {
		return nil, Stats{}
	}
	sc := par.GetScratch()
	defer par.PutScratch(sc)
	h, st := o.knn(q, nil, k, sc)
	return o.finish(h), st
}

// finish extracts a heap's neighbors sorted ascending, converting ordering
// distances at the boundary and re-sorting in distance space (the
// conversion can map distinct ordering values to equal distances).
func (o *OneShot) finish(h *par.KHeap) []par.Neighbor {
	res := h.Results()
	for i := range res {
		res[i].Dist = o.ker.ToDistance(res[i].Dist)
	}
	par.SortNeighbors(res)
	return res
}

// nearestRep is phase 1: the index of q's nearest representative and its
// ordering, ties toward the lower index. ordRow is the query's row of the
// batched BF(Q,R) front half; pass nil to compute it here into sc's
// float64 slot 0 on the row kernel, bit-identical to the tile row.
func (o *OneShot) nearestRep(q []float32, ordRow []float64, sc *par.Scratch) (int, float64) {
	if ordRow == nil {
		ordRow = sc.Float64(0, o.NumReps())
		o.ker.Ordering(q, o.repData.Data, o.db.Dim, ordRow)
	}
	return par.ArgMin(ordRow)
}

// knn runs the one-shot search for the k nearest neighbors, returning the
// candidate heap (in ordering space) from sc's heap slot 0. ordRow
// optionally carries the query's row of the batched BF(Q,R) front half.
// Phase 2 scans the nearest representative's list, positions
// [j·s, (j+1)·s), through the row kernel.
func (o *OneShot) knn(q []float32, ordRow []float64, k int, sc *par.Scratch) (*par.KHeap, Stats) {
	dim := o.db.Dim
	st := Stats{RepEvals: int64(o.NumReps()), RepsKept: 1}
	h := sc.Heap(0, k)
	j, _ := o.nearestRep(q, ordRow, sc)
	// Pooled block buffer: a local array would escape through the kernel's
	// interface dispatch.
	buf := sc.Float64(5, 256)
	lo, hi := j*o.s, (j+1)*o.s
	for blk := lo; blk < hi; blk += len(buf) {
		out := buf[:min(len(buf), hi-blk)]
		o.ker.Ordering(q, o.gather[blk*dim:(blk+len(out))*dim], dim, out)
		for i, d := range out {
			h.Push(int(o.ids[blk+i]), d)
		}
	}
	st.PointEvals = int64(hi - lo)
	return h, st
}

// KNNBatch is the batch-first k-NN entry point (rbc.BatchSearcher): it
// answers a query block in parallel, sharing one tiled BF(Q,R) front half
// across the block, then scans each query's one list as KNN does. A
// one-shot list rarely has two takers in a query tile, so there is no
// grouped list scan. Results and summed Stats are bit-identical to
// calling KNN per query.
func (o *OneShot) KNNBatch(queries *vec.Dataset, k int) ([][]par.Neighbor, Stats) {
	o.checkDim(queries.Dim)
	out := make([][]par.Neighbor, queries.N())
	if k <= 0 {
		return out, Stats{}
	}
	agg := rowFrontHalf(o.ker, queries, o.repData,
		func(i int, row []float64, sc *par.Scratch) Stats {
			h, st := o.knn(queries.Row(i), row, k, sc)
			out[i] = o.finish(h)
			return st
		})
	return out, agg
}

// Certify reports whether the one-shot answer for q is guaranteed exact:
// if ρ(q,r) ≤ ψ_r/2 for the nearest representative r — whose list the
// search always scans — then (by the argument of Theorem 2, which needs
// only that r's list is scanned) q's true NN is necessarily on L_r. It
// reads r and ρ(q,r) from the same phase 1 the search runs, so
// certificate and scan always agree on r, and the exact kernel's ordering
// is a hard witness with no drift to allow for. A false return does not
// mean the answer is wrong — only unwitnessed.
func (o *OneShot) Certify(q []float32) bool {
	sc := par.GetScratch()
	defer par.PutScratch(sc)
	j, ord := o.nearestRep(q, nil, sc)
	return o.ker.ToDistance(ord) <= o.radii[j]/2
}

func (o *OneShot) checkDim(dim int) {
	if dim != o.db.Dim {
		panic(fmt.Sprintf("core: query dim %d does not match database dim %d", dim, o.db.Dim))
	}
}
