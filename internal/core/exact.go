package core

import (
	"fmt"
	"math"

	"repro/internal/bruteforce"
	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/vec"
)

// ExactParams configures BuildExact.
type ExactParams struct {
	// NumReps is the expected number of representatives n_r. Zero selects
	// DefaultNumReps(n).
	NumReps int
	// Seed drives representative sampling.
	Seed int64
	// ExactCount samples exactly NumReps representatives instead of the
	// paper's independent-inclusion scheme (Binomial size).
	ExactCount bool
	// PrunePsi enables the radius bound ρ(q,r) > γ + ψ_r (inequality (1),
	// strict). γ is the home probe's tightened bound (see prune): the
	// smaller of the nearest-representative distance and the best
	// candidate distance found. Both bounds default to on in BuildExact
	// when neither is set.
	PrunePsi bool
	// PruneTriple enables the Lemma 1 bound ρ(q,r) > 3γ (inequality (2)),
	// in its k-NN form ρ(q,r) > 2γ_k + γ_1 with γ_1 the
	// nearest-representative distance and γ_k the tightened bound.
	PruneTriple bool
	// EarlyExit is ignored. Every phase-2 scan is restricted to the
	// admissible window of points x with ρ(x,r) ∈ [ρ(q,r)−γ, ρ(q,r)+γ]
	// (the paper's Claim 2 "sorted list" refinement; exact because
	// |ρ(q,r)−ρ(x,r)| ≤ ρ(q,x) by the triangle inequality).
	//
	// Deprecated: the window is always on; setting the field changes
	// nothing.
	EarlyExit bool
	// ApproxEps, when > 0, relaxes the tightened γ to γ/(1+ε) in the
	// radius bound and the window, pruning r whenever
	// ρ(q,r) > γ/(1+ε) + ψ_r. The returned neighbor is then a
	// (1+ε)-approximate NN: if the true NN x* was pruned we have
	// ρ(q,x*) ≥ ρ(q,r) − ψ_r > γ/(1+ε), while the returned distance is at
	// most γ. This is the footnote-1 variant of the paper.
	ApproxEps float64
}

// Spawn grains for the build loops. A goroutine hand-off costs on the
// order of a microsecond, so each block must carry a few microseconds of
// work to pay for it; the constants encode that break-even for the two
// loop bodies (see par.ArgMinGrain for the same reasoning on the search
// side).
const (
	// gatherGrain: one row copy moves dim float32s (~100ns at dim 256 —
	// memcpy-bound), so 512 rows ≈ 50µs per block, far past break-even
	// while still splitting million-row gathers across every core.
	gatherGrain = 512

	// segSortGrain: a segment sort handles ~n/n_r ≈ √n points at
	// O(m log m) comparisons — tens of microseconds for even modest
	// lists — so a handful of segments per block amortizes the spawn.
	segSortGrain = 8
)

func (p ExactParams) withDefaults(n int) ExactParams {
	if p.NumReps <= 0 {
		p.NumReps = DefaultNumReps(n)
	}
	if !p.PrunePsi && !p.PruneTriple {
		p.PrunePsi = true
		p.PruneTriple = true
	}
	return p
}

// Exact is the RBC index for the exact search algorithm (§5.2): every
// database point belongs to exactly one ownership list — that of its
// nearest representative — and the lists partition the database.
//
// The database rows are gathered into a permuted flat buffer in which each
// list is contiguous and sorted by distance to its representative, so the
// phase-2 scan streams memory just like phase 1. Both phases — BF(Q,R) over
// the representatives and BF(q, L_r) over the surviving lists — run on the
// one exact-grade kernel, bit-identical to the brute-force reference: the
// phase-1 orderings are the very values the pruning rules, windows and
// heap seeds are defined on, and the list-scan orderings are the reported
// answers. Distances convert from ordering space only at the API boundary
// and for the few representatives the pruning rules cannot settle in
// ordering space.
type Exact struct {
	db  *vec.Dataset
	m   metric.Metric[[]float32]
	ker *metric.Kernel // exact kernel: both phases
	prm ExactParams

	repIDs  []int        // database ids of the representatives
	repData *vec.Dataset // gathered representative vectors
	radii   []float64    // ψ_r per representative
	isRep   []bool       // database id → is a representative

	offsets []int     // len(repIDs)+1; list j occupies positions [offsets[j],offsets[j+1])
	ids     []int32   // position → database id
	dists   []float64 // position → ρ(x, rep), ascending within each list
	gather  []float32 // position-aligned gathered vectors

	// mut holds dynamic-update state (per-segment insertion buffers,
	// tombstones). See mutate.go.
	mut mutableState
	// segMerges counts per-segment buffer merges over the index lifetime.
	segMerges int64
}

// initKernel resolves the exact-grade kernel both phases run on; called
// at build and load time. Phase-1 orderings are compared against the
// pruning thresholds and seeded into the heap as answers, and phase-2
// orderings are reported, so every distance the index computes is under
// the bit-reproducibility contract.
func (e *Exact) initKernel() {
	e.ker = metric.NewKernel(e.m)
	if e.ker.IsFast() {
		panic("core: Exact requires an exact-grade kernel")
	}
}

// phase1 returns one query's phase-1 orderings: ordRow, the query's row of
// the batched BF(Q,R) front half, when non-nil, else the row computed here
// into sc's float64 slot 0. On the exact grade the row kernel and the tile
// are bit-identical, so per-query and batched searches see the same
// orderings.
func (e *Exact) phase1(q []float32, ordRow []float64, sc *par.Scratch) []float64 {
	if ordRow != nil {
		return ordRow
	}
	ords := sc.Float64(0, e.NumReps())
	e.ker.Ordering(q, e.repData.Data, e.db.Dim, ords)
	return ords
}

// listWindow returns list j's scan extent in gather positions: its
// admissible window of half-width w around the representative distance d.
func (e *Exact) listWindow(j int, d, w float64) (lo, hi int) {
	lo = e.offsets[j]
	a, b := AdmissibleWindow(e.dists[lo:e.offsets[j+1]], d-w, d+w)
	return lo + a, lo + b
}

// prune is the per-query step between the paper's two brute-force calls:
// pruner.decide (rules.go) with the home probe, appending per survivor a
// (qi, list, lo, hi) quadruple to kept — [lo, hi) the list's admissible
// window (listWindow; possibly empty). It returns kept and the window
// half-width w. Exact.one scans the kept windows row by row;
// Exact.batchGrouped hands a whole tile's quadruples to ScanGrouped.
//
// The home probe scans the HomeProbe·k members of the home list whose
// ρ(x,r) lie nearest ρ(q,r) (ProbeRun); once the heap is full its worst
// candidate is a real answer bound that tightens γ_k. The home list's
// window then excludes the probed run and is kept as two adjacent
// quadruples. The probe uses sc's float64 slot 2. Until a representative
// is tombstoned all are live, so the pruner is spared the tombstones and
// the k = 1 selector and seeding passes they would cost.
func (e *Exact) prune(q []float32, ords []float64, qi, k int, h *par.KHeap, sc *par.Scratch, st *Stats, kept []int) ([]int, float64) {
	var home, pLo, pHi int
	rules := newPruner(e.ker, e.repIDs, e.radii, e.prm)
	if e.mut.numDeadReps > 0 {
		rules.deleted = e.mut.deleted
	}
	w := rules.decide(ords, k, h, sc, st,
		func(j int, d float64) {
			home = j
			off := e.offsets[j]
			pLo, pHi = ProbeRun(e.dists[off:e.offsets[j+1]], d, HomeProbe*k)
			pLo, pHi = off+pLo, off+pHi
			st.PointEvals += e.scanRun(q, pLo, pHi, h, sc.Float64(2, pHi-pLo))
		},
		func(j int, d, w float64) {
			lo, hi := e.listWindow(j, d, w)
			if j == home {
				a, b := SplitAroundRun(lo, hi, pLo, pHi)
				kept = append(kept, qi, j, lo, a, qi, j, b, hi)
				return
			}
			kept = append(kept, qi, j, lo, hi)
		})
	return kept, w
}

// scanRun offers gathered positions [lo, hi) to h through the row
// kernel, buf's length at a time, and returns the evaluation count
// hi − lo. Admission tests the heap bound before anything else: an
// ordering past the k-th kept one (+Inf until the heap is full) would be
// a no-op Push, so it is skipped before ids and isRep are read. The test
// is strict, so a tie at the bound (which may still win on id) and a NaN
// still reach Push; the bound moves only when a Push keeps its candidate.
// Representatives and tombstones are skipped as candidates, not as work.
func (e *Exact) scanRun(q []float32, lo, hi int, h *par.KHeap, buf []float64) int64 {
	dim := e.db.Dim
	bound, _ := h.Worst()
	for blk := lo; blk < hi; blk += len(buf) {
		out := buf[:min(len(buf), hi-blk)]
		e.ker.Ordering(q, e.gather[blk*dim:(blk+len(out))*dim], dim, out)
		for i, dd := range out {
			if dd > bound {
				continue
			}
			if id := int(e.ids[blk+i]); !e.isRep[id] && !e.isDeleted(id) && h.Push(id, dd) {
				bound, _ = h.Worst()
			}
		}
	}
	return int64(hi - lo)
}

// BuildExact constructs the exact-search RBC over db. The build is the
// single brute-force call BF(X,R) (§4), computed as point-tile ×
// representative-tile loops over the tiled kernel: each database point
// finds its nearest representative; lists, radii and the gathered layout
// follow.
func BuildExact(db *vec.Dataset, m metric.Metric[[]float32], prm ExactParams) (*Exact, error) {
	n := db.N()
	if err := validateBuildInputs(n, db.Dim); err != nil {
		return nil, err
	}
	prm = prm.withDefaults(n)
	if prm.ApproxEps < 0 {
		return nil, fmt.Errorf("core: negative ApproxEps %v", prm.ApproxEps)
	}
	rng := newRand(prm.Seed)
	repIDs := sampleReps(n, prm.NumReps, prm.ExactCount, rng)
	nr := len(repIDs)
	repData := db.Subset(repIDs)
	isRep := make([]bool, n)
	for _, id := range repIDs {
		isRep[id] = true
	}
	// BF(X,R): nearest representative for every database point, through the
	// tiled matrix-matrix primitive (ties break toward the lower rep index,
	// matching the tile loops' lower-id rule).
	owners := bruteforce.Search(db, repData, m, nil)

	// Bucket into lists (counting sort by owner), then sort each list by
	// distance to its representative to enable the admissible window.
	counts := make([]int, nr+1)
	for _, o := range owners {
		counts[o.ID+1]++
	}
	for j := 0; j < nr; j++ {
		counts[j+1] += counts[j]
	}
	offsets := append([]int(nil), counts...)
	ids := make([]int32, n)
	dists := make([]float64, n)
	next := append([]int(nil), counts[:nr]...)
	for i, o := range owners {
		pos := next[o.ID]
		next[o.ID]++
		ids[pos] = int32(i)
		dists[pos] = o.Dist
	}
	radii := make([]float64, nr)
	par.ForEach(nr, segSortGrain, func(j int) {
		lo, hi := offsets[j], offsets[j+1]
		sortSegment(ids[lo:hi], dists[lo:hi])
		if hi > lo {
			radii[j] = dists[hi-1]
		}
	})

	// Gather the database into list order so phase 2 is contiguous.
	gather := make([]float32, n*db.Dim)
	par.For(n, gatherGrain, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			copy(gather[p*db.Dim:(p+1)*db.Dim], db.Row(int(ids[p])))
		}
	})

	e := &Exact{
		db: db, m: m, prm: prm,
		repIDs: repIDs, repData: repData, radii: radii, isRep: isRep,
		offsets: offsets, ids: ids, dists: dists, gather: gather,
		mut: newMutableState(n, nr),
	}
	e.initKernel()
	return e, nil
}

// segSorter sorts a list segment by (dist, id) without allocating pairs.
// It is the implementation behind sortSegment (window.go) — every
// segment-sort site goes through that single primitive.
type segSorter struct {
	ids   []int32
	dists []float64
}

func (s *segSorter) Len() int { return len(s.ids) }
func (s *segSorter) Less(i, j int) bool {
	if s.dists[i] != s.dists[j] {
		return s.dists[i] < s.dists[j]
	}
	return s.ids[i] < s.ids[j]
}
func (s *segSorter) Swap(i, j int) {
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
	s.dists[i], s.dists[j] = s.dists[j], s.dists[i]
}

// NumReps reports the realized number of representatives |R|.
func (e *Exact) NumReps() int { return len(e.repIDs) }

// RepIDs returns the database ids of the representatives (do not modify).
func (e *Exact) RepIDs() []int { return e.repIDs }

// Radii returns ψ_r for each representative (do not modify).
func (e *Exact) Radii() []float64 { return e.radii }

// ListSizes returns the ownership-list cardinalities.
func (e *Exact) ListSizes() []int {
	out := make([]int, e.NumReps())
	for j := range out {
		out[j] = e.offsets[j+1] - e.offsets[j]
	}
	return out
}

// List returns ownership list j in the index's own layout: member ids,
// their ascending distances to representative j, and the gathered member
// rows (do not modify). Insertion buffers are not included; on a pristine
// index the lists partition the database.
func (e *Exact) List(j int) (ids []int32, dists []float64, rows []float32) {
	lo, hi := e.offsets[j], e.offsets[j+1]
	return e.ids[lo:hi], e.dists[lo:hi], e.gather[lo*e.db.Dim : hi*e.db.Dim]
}

// Params returns the parameters the index was built with (NumReps reflects
// the requested value; see NumReps() for the realized count).
func (e *Exact) Params() ExactParams { return e.prm }

// KNN returns the k exact nearest neighbors of q sorted by ascending
// distance (with ApproxEps > 0, (1+ε)-approximate ones), along with the
// work performed. Fewer than k are returned only if fewer than k points
// are live; k = 1 is the paper's 1-NN search, and an index whose every
// row is deleted answers with an empty slice.
// It keeps its own loop (Exact.one): as a one-query block, ScanGrouped's
// O(n_r) inversion cost +33 % on Robot 200 k at k = 1 (3.64–3.73 →
// 4.86–4.98 µs per query, one Xeon core).
func (e *Exact) KNN(q []float32, k int) ([]par.Neighbor, Stats) {
	if k <= 0 {
		return nil, Stats{}
	}
	sc := par.GetScratch()
	defer par.PutScratch(sc)
	h, st := e.one(q, k, sc)
	return e.finish(h), st
}

// finish extracts a heap's neighbors sorted ascending, converting ordering
// distances at the boundary and re-sorting in distance space (the
// conversion can map distinct ordering values to equal distances).
func (e *Exact) finish(h *par.KHeap) []par.Neighbor {
	res := h.Results()
	for i := range res {
		res[i].Dist = e.ker.ToDistance(res[i].Dist)
	}
	par.SortNeighbors(res)
	return res
}

// one runs the two-phase exact search for one query, returning the
// candidate heap (in ordering space) from sc's slot 0: phase 2 row-scans
// each kept window (scanRun), then the kept lists' insertion buffers.
func (e *Exact) one(q []float32, k int, sc *par.Scratch) (*par.KHeap, Stats) {
	nr := e.NumReps()
	st := Stats{RepEvals: int64(nr)}
	// Block buffer for the list scans, doubling as the buffer-scan cell;
	// pooled because a local array would escape through the kernel's
	// interface dispatch.
	scratch := sc.Float64(5, 256)
	ords := e.phase1(q, nil, sc)
	h := sc.Heap(0, k)
	kept, w := e.prune(q, ords, 0, k, h, sc, &st, sc.Ints(0, 4*(nr+1))[:0])
	for t := 0; t < len(kept); t += 4 {
		st.PointEvals += e.scanRun(q, kept[t+2], kept[t+3], h, scratch)
	}
	if e.Buffered() > 0 {
		st.PointEvals += e.scanBuffers(q, ords, kept, w, h, scratch)
	}
	return h, st
}

// KNNBatch is the batch-first k-NN entry point (rbc.BatchSearcher): it
// answers a query block in parallel and returns the per-query results plus
// aggregated stats. The whole block shares one tiled BF(Q,R) front half —
// query tiles against representative tiles — and each query tile one
// grouped list scan (batchGrouped), on a pristine or mutated index alike.
// Results are bit-identical to calling KNN per query.
func (e *Exact) KNNBatch(queries *vec.Dataset, k int) ([][]par.Neighbor, Stats) {
	e.checkDim(queries.Dim)
	out := make([][]par.Neighbor, queries.N())
	if k <= 0 {
		return out, Stats{}
	}
	return out, e.batchGrouped(queries, k, out)
}

// Range returns every database point within eps of q, sorted by ascending
// distance. The search is exact: a representative can own a point within
// eps of q only if ρ(q,r) ≤ eps + ψ_r, and within a surviving list only
// points with ρ(x,r) ∈ [ρ(q,r)−eps, ρ(q,r)+eps] can qualify.
func (e *Exact) Range(q []float32, eps float64) ([]par.Neighbor, Stats) {
	sc := par.GetScratch()
	defer par.PutScratch(sc)
	return e.rangeOne(q, eps, nil, sc)
}

// RangeBatch answers a block of range queries in parallel, sharing one
// tiled BF(Q,R) front half across the block like KNNBatch does. Results
// are bit-identical to calling Range per query.
func (e *Exact) RangeBatch(queries *vec.Dataset, eps float64) ([][]par.Neighbor, Stats) {
	e.checkDim(queries.Dim)
	out := make([][]par.Neighbor, queries.N())
	agg := rowFrontHalf(e.ker, queries, e.repData,
		func(i int, row []float64, sc *par.Scratch) Stats {
			hits, st := e.rangeOne(queries.Row(i), eps, row, sc)
			out[i] = hits
			return st
		})
	return out, agg
}

// rangeOne runs the two-phase range search. ordRow optionally carries the
// query's row of the batched BF(Q,R) front half. It keeps its own loop —
// no γ, no seeding, a strict radius rule on converted distances — over
// the same phase-1 row and listWindow as the k-NN pruner; hits are
// confirmed point by point in exact arithmetic.
func (e *Exact) rangeOne(q []float32, eps float64, ordRow []float64, sc *par.Scratch) ([]par.Neighbor, Stats) {
	nr := e.NumReps()
	dim := e.db.Dim
	st := Stats{RepEvals: int64(nr)}
	scratch := sc.Float64(5, 256)
	ords := e.phase1(q, ordRow, sc)
	// Ordering-space prefilter bound for eps; survivors are confirmed in
	// distance space, and OrderingBound guarantees the boundary stays exact.
	epsHi := e.ker.OrderingBound(math.Abs(eps))

	var hits []par.Neighbor
	confirm := func(id int, o float64) {
		if o <= epsHi {
			if dd := e.ker.ToDistance(o); dd <= eps {
				hits = append(hits, par.Neighbor{ID: id, Dist: dd})
			}
		}
	}
	for j, o := range ords {
		d := e.ker.ToDistance(o)
		if rangePsiRule(eps, e.radii[j]).holds(d) {
			st.PrunedPsi++
			continue
		}
		st.RepsKept++
		lo, hi := e.listWindow(j, d, eps)
		for blk := lo; blk < hi; blk += len(scratch) {
			end := min(blk+len(scratch), hi)
			out := scratch[:end-blk]
			e.ker.Ordering(q, e.gather[blk*dim:end*dim], dim, out)
			for i, o := range out {
				if id := int(e.ids[blk+i]); !e.isDeleted(id) {
					confirm(id, o)
				}
			}
			st.PointEvals += int64(end - blk)
		}
		if len(e.mut.bufIDs[j]) > 0 {
			st.PointEvals += e.scanBuffer(q, j, d, eps, scratch, confirm)
		}
	}
	par.SortNeighbors(hits)
	return hits, st
}

func (e *Exact) checkDim(dim int) {
	if dim != e.db.Dim {
		panic(fmt.Sprintf("core: query dim %d does not match database dim %d", dim, e.db.Dim))
	}
}
