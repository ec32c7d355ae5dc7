package core

import (
	"fmt"
	"math"

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
	// Probes is the number of nearest representatives whose lists are
	// scanned per query. The paper's algorithm is Probes = 1 (the
	// default); larger values trade time for accuracy, an extension in
	// the spirit of multiprobe LSH.
	Probes int
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
	if p.Probes <= 0 {
		p.Probes = 1
	}
	return p
}

// OneShot is the RBC index for the one-shot search algorithm (§5.1): each
// representative owns its s nearest database points (lists overlap), and a
// query scans exactly one ownership list — that of its nearest
// representative. The answer is exact with probability ≥ 1−δ when
// n_r = s = c·sqrt(n·ln(1/δ)) (Theorem 2).
//
// Both phases — probe selection over the representatives and the list
// scan whose distances are the reported answers — run on the exact
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

// One runs the one-shot search for q: BF(q,R) to find the nearest
// representative, then BF(q, X[L_r]) over its ownership list.
func (o *OneShot) One(q []float32) (Result, Stats) {
	sc := par.GetScratch()
	defer par.PutScratch(sc)
	h, st := o.knn(q, 1, sc)
	nb, ok := h.Best()
	if !ok {
		return Result{ID: -1, Dist: math.Inf(1)}, st
	}
	return Result{ID: nb.ID, Dist: o.ker.ToDistance(nb.Dist)}, st
}

// KNN returns the (probabilistically correct) k nearest neighbors of q,
// sorted by ascending distance, scanning the Probes nearest
// representatives' lists.
func (o *OneShot) KNN(q []float32, k int) ([]par.Neighbor, Stats) {
	if k <= 0 {
		return nil, Stats{}
	}
	sc := par.GetScratch()
	defer par.PutScratch(sc)
	h, st := o.knn(q, k, sc)
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

// probe is phase 1: it returns the Probes nearest representatives of a
// query as a heap in sc's heap slot 0, in ordering space, ties toward the
// lower index. ords is the query's ordering row over the representatives;
// pass nil to have probe compute it for q into sc's float64 slot 0 (the
// row kernel, bit-identical to the batched front half's tile row).
func (o *OneShot) probe(q []float32, ords []float64, sc *par.Scratch) *par.KHeap {
	if ords == nil {
		ords = sc.Float64(0, o.NumReps())
		o.ker.Ordering(q, o.repData.Data, o.db.Dim, ords)
	}
	h := sc.Heap(0, min(o.prm.Probes, len(ords)))
	for j, d := range ords {
		h.Push(j, d)
	}
	return h
}

// knn runs the one-shot search, returning the candidate heap (in ordering
// space) from sc's heap slot 1.
func (o *OneShot) knn(q []float32, k int, sc *par.Scratch) (*par.KHeap, Stats) {
	dim := o.db.Dim
	st := Stats{RepEvals: int64(o.NumReps())}
	probes := o.probe(q, nil, sc).Kept()

	h := sc.Heap(1, k)
	// With multiple probes a point may appear on several scanned lists;
	// dedupe so k-NN result sets contain distinct ids.
	var seen map[int32]struct{}
	if len(probes) > 1 {
		seen = make(map[int32]struct{}, len(probes)*o.s)
	}
	// Pooled block buffer: a local array would escape through the kernel's
	// interface dispatch.
	scratch := sc.Float64(5, 256)
	for _, probe := range probes {
		j := probe.ID
		st.RepsKept++
		lo, hi := j*o.s, (j+1)*o.s
		for blk := lo; blk < hi; blk += len(scratch) {
			end := blk + len(scratch)
			if end > hi {
				end = hi
			}
			out := scratch[:end-blk]
			o.ker.Ordering(q, o.gather[blk*dim:end*dim], dim, out)
			for i, dd := range out {
				id := o.ids[blk+i]
				if seen != nil {
					if _, dup := seen[id]; dup {
						continue
					}
					seen[id] = struct{}{}
				}
				h.Push(int(id), dd)
			}
			st.PointEvals += int64(end - blk)
		}
	}
	return h, st
}

// Search answers a batch of 1-NN queries in parallel and returns the
// results plus aggregated stats. The phase-1 scans run as a tiled BF(Q,R)
// front half.
func (o *OneShot) Search(queries *vec.Dataset) ([]Result, Stats) {
	o.checkDim(queries.Dim)
	out := make([]Result, queries.N())
	agg := o.batch(queries, 1, func(i int, h *par.KHeap) {
		nb, ok := h.Best()
		if !ok {
			out[i] = Result{ID: -1, Dist: math.Inf(1)}
			return
		}
		out[i] = Result{ID: nb.ID, Dist: o.ker.ToDistance(nb.Dist)}
	})
	return out, agg
}

// SearchK answers a batch of k-NN queries in parallel.
func (o *OneShot) SearchK(queries *vec.Dataset, k int) ([][]par.Neighbor, Stats) {
	o.checkDim(queries.Dim)
	out := make([][]par.Neighbor, queries.N())
	if k <= 0 {
		return out, Stats{}
	}
	agg := o.batch(queries, k, func(i int, h *par.KHeap) {
		out[i] = o.finish(h)
	})
	return out, agg
}

// KNNBatch is the batch-first k-NN entry point (search.BatchSearcher):
// the whole query block shares one tiled BF(Q,R) front half before the
// grouped list scans run.
func (o *OneShot) KNNBatch(queries *vec.Dataset, k int) ([][]par.Neighbor, Stats) {
	return o.SearchK(queries, k)
}

// batch answers a query block through the fully grouped path
// (batch_grouped.go): the tiled BF(Q,R) front half selects probes for
// the whole block, and each probed list is scanned once per query tile.
func (o *OneShot) batch(queries *vec.Dataset, k int, sink func(i int, h *par.KHeap)) Stats {
	return o.batchGrouped(queries, k, sink)
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
	r, _ := o.probe(q, nil, sc).Best()
	return o.ker.ToDistance(r.Dist) <= o.radii[r.ID]/2
}

func (o *OneShot) checkDim(dim int) {
	if dim != o.db.Dim {
		panic(fmt.Sprintf("core: query dim %d does not match database dim %d", dim, o.db.Dim))
	}
}
