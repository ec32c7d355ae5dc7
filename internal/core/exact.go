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
	// PrunePsi enables the radius bound ρ(q,r) ≥ γ + ψ_r (inequality (1)).
	// Both bounds default to on in BuildExact when neither is set.
	PrunePsi bool
	// PruneTriple enables the Lemma 1 bound ρ(q,r) > 3γ (inequality (2)).
	PruneTriple bool
	// EarlyExit restricts the phase-2 scan of each surviving list to the
	// admissible window of points x with ρ(x,r) ∈ [ρ(q,r)−γ, ρ(q,r)+γ]
	// (the paper's Claim 2 "sorted list" refinement; exact because
	// |ρ(q,r)−ρ(x,r)| ≤ ρ(q,x) by the triangle inequality).
	EarlyExit bool
	// ApproxEps, when > 0, relaxes the radius bound to prune r whenever
	// ρ(q,r) ≥ γ/(1+ε) + ψ_r. The returned neighbor is then a
	// (1+ε)-approximate NN: if the true NN x* was pruned we have
	// ρ(q,x*) ≥ ρ(q,r) − ψ_r ≥ γ/(1+ε), while the returned distance is at
	// most γ. This is the footnote-1 variant of the paper.
	ApproxEps float64
	// BufferMerge bounds each representative's insertion buffer: a buffer
	// reaching this size is merged into its sorted segment (a targeted
	// per-segment re-sort; see mutate.go). Zero selects DefaultBufferMerge;
	// negative disables automatic merging (buffers grow until Flush or
	// Rebuild). Answers are invariant to this knob.
	BufferMerge int
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
// phase-2 scan streams memory just like phase 1. Phase 2 — the list scans,
// whose distances are the reported answers — always runs on the exact-mode
// tiled kernels, bit-identical to the brute-force reference. Phase 1
// (BF(Q,R)) runs on the fast kernel grade over cached representative
// norms: its orderings are never reported, only *compared*, and every
// comparison is made ulp-tolerant by bracketing each fast ordering with
// metric.GramOrderingSlack — prune, window and seed decisions then
// provably agree with the exact kernel's, so answers stay bit-identical
// (see one() for the bracketing rules). Distances convert from ordering
// space only at the API boundary and for the pruning thresholds, whose
// triangle-inequality math needs real distances.
type Exact struct {
	db   *vec.Dataset
	m    metric.Metric[[]float32]
	ker  *metric.Kernel // exact kernel: list scans (reported answers)
	fker *metric.Kernel // fast kernel: phase-1 BF(Q,R) (bracketed orderings)
	prm  ExactParams

	repNorms   []float64 // cached ‖r‖² per representative (Gram phase 1)
	maxRepNorm float64   // max of repNorms; one slack per query suffices

	repIDs  []int        // database ids of the representatives
	repData *vec.Dataset // gathered representative vectors
	radii   []float64    // ψ_r per representative
	isRep   []bool       // database id → is a representative

	offsets []int     // len(repIDs)+1; list j occupies positions [offsets[j],offsets[j+1])
	ids     []int32   // position → database id
	dists   []float64 // position → ρ(x, rep), ascending within each list
	gather  []float32 // position-aligned gathered vectors

	// mut holds dynamic-update state (per-segment insertion buffers,
	// tombstones); nil while the index is pristine. See mutate.go.
	mut *mutableState
	// segMerges counts per-segment buffer merges over the index lifetime;
	// it outlives mut so the counter survives Flush/Rebuild resets.
	segMerges int64
}

// initKernel resolves the tiled kernels and caches the representative
// norms; called at build and load time. The exact-grade assertion is
// scoped to the *answer path*: phase-2 scans and seed rescoring report
// distances under the bit-reproducibility contract and must stay on
// e.ker, while phase 1 deliberately runs the fast grade (e.fker) behind
// the slack brackets. For metrics without a Gram decomposition the fast
// kernel dispatches identically to the exact one and Norms reports no
// use for norms, so repNorms stays nil and the slack degenerates to 0.
func (e *Exact) initKernel() {
	e.ker = metric.NewKernel(e.m)
	if e.ker.IsFast() {
		panic("core: Exact requires an exact-grade kernel on the answer path")
	}
	e.fker = metric.NewFastKernel(e.m)
	e.repNorms = e.fker.Norms(e.repData.Data, e.db.Dim, nil)
	e.maxRepNorm = 0
	for _, n := range e.repNorms {
		if n > e.maxRepNorm {
			e.maxRepNorm = n
		}
	}
}

// phase1Slack returns the per-query ordering slack for the fast phase-1
// brackets: GramOrderingSlack against the largest representative norm
// (slack is monotone in both norms, so one value per query bounds every
// pair), or 0 when the fast kernel has no Gram path and is bitwise equal
// to the exact one. qn is written through sc's float64 slot 1 — callers
// re-carve that slot afterwards.
func (e *Exact) phase1Slack(q []float32, sc *par.Scratch) (qn []float64, slack float64) {
	if !e.fker.NeedsNorms() {
		return nil, 0
	}
	qn = e.fker.Norms(q, e.db.Dim, sc.Float64(1, 1))
	return qn, metric.GramOrderingSlack(e.db.Dim, qn[0], e.maxRepNorm)
}

// bracketOrd converts one fast phase-1 ordering into its certified
// distance bracket [lo, hi]: the exact ordering lies within slack of o,
// and ToDistance (a correctly-rounded sqrt for l2) is monotone, so the
// exact distance lies in [lo, hi].
func (e *Exact) bracketOrd(o, slack float64) (lo, hi float64) {
	ol := o - slack
	if ol < 0 {
		ol = 0
	}
	return e.ker.ToDistance(ol), e.ker.ToDistance(o + slack)
}

// exactRepDist returns the exact distance from q to representative j,
// rescoring through the answer-grade kernel on first use and collapsing
// the bracket in repLo/repHi so subsequent checks reuse the exact value.
// A collapsed bracket (lo == hi) already pins the distance: either it was
// rescored, or the slack interval rounded to a single distance, which the
// exact distance — inside the bracket by construction — must then equal.
// cell is a caller-pooled 1-element kernel output buffer. Rescores are
// not counted as evals; both search paths leave them out, so per-query
// and batched stats agree.
func (e *Exact) exactRepDist(q []float32, j int, repLo, repHi, cell []float64) float64 {
	if repLo[j] == repHi[j] {
		return repLo[j]
	}
	dim := e.db.Dim
	e.ker.Ordering(q, e.repData.Data[j*dim:(j+1)*dim], dim, cell[:1])
	d := e.ker.ToDistance(cell[0])
	repLo[j], repHi[j] = d, d
	return d
}

// exactWindow resolves one EarlyExit admissible window under a phase-1
// bracket [dLo, dHi] so that it equals the window the all-exact path
// computes from the exact distance d ∈ [dLo, dHi]. Both AdmissibleWindow
// bounds are monotone in their argument, so clipping with the two bracket
// ends brackets each bound of the exact window; when the two clips agree
// the window is certified, otherwise the representative is rescored and
// the window recomputed from the exact distance (a razor case: some
// member distance falls within slack of a window edge).
func (e *Exact) exactWindow(q []float32, j int, dists []float64, w float64,
	repLo, repHi, cell []float64) (a, b int) {
	dLo, dHi := repLo[j], repHi[j]
	a, b = AdmissibleWindow(dists, dLo-w, dHi+w)
	if dLo != dHi {
		a2, b2 := AdmissibleWindow(dists, dHi-w, dLo+w)
		if a2 != a || b2 != b {
			d := e.exactRepDist(q, j, repLo, repHi, cell)
			a, b = AdmissibleWindow(dists, d-w, d+w)
		}
	}
	return a, b
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
	owner := make([]int32, n)
	ownerDist := make([]float64, n)
	for i, r := range bruteforce.Search(db, repData, m, nil) {
		owner[i] = int32(r.ID)
		ownerDist[i] = r.Dist
	}

	// Bucket into lists (counting sort by owner), then sort each list by
	// distance to its representative to enable the EarlyExit window.
	counts := make([]int, nr+1)
	for _, o := range owner {
		counts[o+1]++
	}
	for j := 0; j < nr; j++ {
		counts[j+1] += counts[j]
	}
	offsets := append([]int(nil), counts...)
	ids := make([]int32, n)
	dists := make([]float64, n)
	next := append([]int(nil), counts[:nr]...)
	for i := 0; i < n; i++ {
		pos := next[owner[i]]
		next[owner[i]]++
		ids[pos] = int32(i)
		dists[pos] = ownerDist[i]
	}
	radii := make([]float64, nr)
	par.ForEach(nr, segSortGrain, func(j int) {
		lo, hi := offsets[j], offsets[j+1]
		SortSegment(ids[lo:hi], dists[lo:hi])
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
	}
	e.initKernel()
	return e, nil
}

// segSorter sorts a list segment by (dist, id) without allocating pairs.
// It is the implementation behind SortSegment (window.go) — every
// segment-sort site goes through that single exported primitive.
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

// One returns the exact nearest neighbor of q (or a (1+ε)-approximate one
// when ApproxEps > 0), along with the work performed.
func (e *Exact) One(q []float32) (Result, Stats) {
	sc := par.GetScratch()
	defer par.PutScratch(sc)
	h, st := e.one(q, 1, nil, sc)
	nb, ok := h.Best()
	if !ok {
		return Result{ID: -1, Dist: math.Inf(1)}, st
	}
	return Result{ID: nb.ID, Dist: e.ker.ToDistance(nb.Dist)}, st
}

// KNN returns the k exact nearest neighbors of q sorted by ascending
// distance. Fewer than k are returned only if the database is smaller
// than k.
func (e *Exact) KNN(q []float32, k int) ([]par.Neighbor, Stats) {
	if k <= 0 {
		return nil, Stats{}
	}
	sc := par.GetScratch()
	defer par.PutScratch(sc)
	h, st := e.one(q, k, nil, sc)
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

// one runs the two-phase exact search for the k nearest neighbors,
// returning the candidate heap (in ordering space) from sc's slot 0.
// ordRow optionally carries precomputed phase-1 *fast-grade* ordering
// distances (the batched BF(Q,R) front half, which runs e.fker); nil
// computes them here through the same fast kernel.
//
// Correctness of the pruning for k > 1: let γ_k be the k-th smallest
// distance from q to a representative (or +inf if |R| < k). Since
// representatives are database points, γ_k upper-bounds the k-th NN
// distance. Rule (1) generalizes directly: a representative with
// ρ(q,r) ≥ γ_k + ψ_r owns no point within γ_k of q. Rule (2): if x is one
// of the k NNs and r* owns x, then ρ(x,r*) ≤ ρ(x,q)+ρ(q,r_1) ≤ γ_k+γ_1,
// so ρ(q,r*) ≤ ρ(q,x)+ρ(x,r*) ≤ 2γ_k+γ_1 ≤ 3γ_k — we prune with the
// tighter 2γ_k+γ_1.
//
// Phase 1 runs on the fast kernel, so every use of ρ(q,r) above is made
// ulp-tolerant by bracketing: [lo_j, hi_j] certifiably contains the exact
// distance (bracketOrd). Every *decision* is then made exactly as the
// all-exact path would make it — certified through the bracket when the
// threshold falls outside it, resolved by rescoring that one
// representative through the exact kernel when it falls inside (a razor
// case, vanishingly rare off engineered ties):
//
//   - γ's are exact: the candidate set {j : lo_j ≤ γ_k^hi} (γ_k^hi the
//     k-th smallest bracket high over live reps) provably contains the k
//     nearest live reps, is rescored exactly, and γ_1/γ_k are selected
//     from those exact distances — any j outside the set has
//     ρ(q,r_j) ≥ lo_j > γ_k^hi ≥ γ_k and cannot reach either γ;
//   - prune tests certify against the bracket (lo_j past the threshold
//     prunes, hi_j short of it keeps) and rescore the razor cases, so
//     every prune decision — and therefore every counter — equals the
//     exact path's, ApproxEps included;
//   - EarlyExit windows certify by clipping with both bracket ends
//     ([lo_j−w, hi_j+w] vs [hi_j−w, lo_j+w]); when the two clips
//     disagree on any position the rep is rescored, so the scanned
//     extent equals the exact path's exactly;
//   - heap seeding pushes the rescored candidate set with its exact
//     orderings — the heap only ever holds answer-grade orderings, and
//     reps outside the set are strictly past the k-th answer so the
//     kept multiset (insertion-order independent) is unchanged.
//
// Answers, stats and scan extents are therefore bit-identical to an
// all-exact phase 1; only the rescore evaluations (uncounted on both
// search paths) differ. For metrics without a Gram fast path the slack
// is 0, brackets collapse, and no rescoring ever happens.
func (e *Exact) one(q []float32, k int, ordRow []float64, sc *par.Scratch) (*par.KHeap, Stats) {
	nr := e.NumReps()
	dim := e.db.Dim
	st := Stats{RepEvals: int64(nr)}

	// Phase 1: fast-grade brute force over the representatives in
	// ordering space. The Gram grade's Ordering entry point falls back to
	// the exact row, so the single-row case goes through Tile, which
	// dispatches to the Gram row over the cached norms — the same
	// arithmetic the batched front half uses, keeping per-query and
	// batched searches bit-identical.
	qn, slack := e.phase1Slack(q, sc)
	ords := ordRow
	if ords == nil {
		ords = sc.Float64(0, nr)
		e.fker.Tile(q, qn, e.repData.Data, e.repNorms, dim, ords, nil)
	}
	// The pruning thresholds live in distance space (their derivations add
	// distances), so bracket once per representative — ~2√n sqrts per
	// query. Slot 1 re-carve retires qn (already consumed).
	repLo := sc.Float64(1, nr)
	repHi := sc.Float64(2, nr)
	for j, o := range ords {
		repLo[j], repHi[j] = e.bracketOrd(o, slack)
	}
	// Preliminary selector for the γ candidate set: the k-th smallest
	// bracket high over live reps upper-bounds the exact γ_k, so every rep
	// that can contribute to either γ has repLo ≤ gammaKHi.
	_, gammaKHi := e.liveGammas(repHi, k, sc)

	h := sc.Heap(0, k)
	// Block buffer for the list scans; pooled because a local array would
	// escape through the kernel's interface dispatch. Carved after
	// liveGammas, which time-shares slot 5.
	scratch := sc.Float64(5, 256)
	// Rescore the γ candidate set through the exact kernel (answer grade;
	// the row path matches the gathered-scan arithmetic bit for bit) and
	// seed the heap with it. Representatives are database points; seeding
	// realizes the paper's implicit "γ is itself a candidate answer" and —
	// together with the list scans below skipping representative ids —
	// makes the returned k-NN multiset exact even at pruning-boundary
	// ties. Reps outside the set sit strictly past the k-th answer, so
	// dropping their (old-path) seeds cannot change the kept multiset.
	// The exact distances collected here then select the exact γ_1/γ_k:
	// every live rep at or under the exact γ_k is in the set, so its order
	// statistics below γ_k^hi match the full live set's.
	cand := sc.Float64(7, nr)[:0]
	for j := 0; j < nr; j++ {
		if repLo[j] > gammaKHi || e.isDeleted(e.repIDs[j]) {
			continue
		}
		e.ker.Ordering(q, e.repData.Data[j*dim:(j+1)*dim], dim, scratch[:1])
		d := e.ker.ToDistance(scratch[0])
		repLo[j], repHi[j] = d, d
		h.Push(e.repIDs[j], scratch[0])
		cand = append(cand, d)
	}
	gamma1, gammaK := kthSmallest(cand, k, sc)

	// Pruning thresholds — exact, since the γ's are. ApproxEps relaxes
	// only the radius rule.
	psiGamma := gammaK
	if e.prm.ApproxEps > 0 {
		psiGamma = gammaK / (1 + e.prm.ApproxEps)
	}
	tripleBound := 2*gammaK + gamma1

	for j := 0; j < nr; j++ {
		dLo, dHi := repLo[j], repHi[j]
		if e.prm.PrunePsi {
			// Exact rule: prune iff d ≥ t. The bracket certifies all but
			// the razor case t ∈ (dLo, dHi], which the exact distance
			// decides — identically to the all-exact path.
			t := psiGamma + e.radii[j]
			if dLo >= t {
				st.PrunedPsi++
				continue
			}
			if dHi >= t {
				if e.exactRepDist(q, j, repLo, repHi, scratch) >= t {
					st.PrunedPsi++
					continue
				}
				dLo, dHi = repLo[j], repHi[j]
			}
		}
		if e.prm.PruneTriple && !math.IsInf(tripleBound, 1) {
			// Exact rule: prune iff d > tripleBound (strict).
			if dLo > tripleBound {
				st.PrunedTriple++
				continue
			}
			if dHi > tripleBound {
				if e.exactRepDist(q, j, repLo, repHi, scratch) > tripleBound {
					st.PrunedTriple++
					continue
				}
				dLo, dHi = repLo[j], repHi[j]
			}
		}
		st.RepsKept++
		lo, hi := e.offsets[j], e.offsets[j+1]
		// Admissible window half-width: |ρ(q,r) − ρ(x,r)| ≤ ρ(q,x) ≤ γ_k
		// for any answer x, so only ρ(x,r) ∈ [d−w, d+w] can qualify, with
		// w = γ_k (or its (1+ε)-relaxation, matching the radius rule) and
		// d pinned by certification or rescore to the exact window.
		w := psiGamma
		if e.prm.EarlyExit {
			a, b := e.exactWindow(q, j, e.dists[lo:hi], w, repLo, repHi, scratch)
			lo, hi = lo+a, lo+b
		}
		for blk := lo; blk < hi; blk += len(scratch) {
			end := blk + len(scratch)
			if end > hi {
				end = hi
			}
			out := scratch[:end-blk]
			e.ker.Ordering(q, e.gather[blk*dim:end*dim], dim, out)
			for i, dd := range out {
				if id := int(e.ids[blk+i]); !e.isRep[id] && !e.isDeleted(id) {
					h.Push(id, dd)
				}
			}
			st.PointEvals += int64(end - blk)
		}
		if e.mut != nil && len(e.mut.bufIDs[j]) > 0 {
			wLo, wHi := dLo-w, dHi+w
			if e.prm.EarlyExit && dLo != dHi {
				// The buffer window clips stored member distances directly,
				// so pin it to the exact representative distance.
				d := e.exactRepDist(q, j, repLo, repHi, scratch)
				wLo, wHi = d-w, d+w
			}
			st.PointEvals += e.scanBuffer(j, q, wLo, wHi, scratch[:1], func(id int, dd float64) {
				if !e.isRep[id] {
					h.Push(id, dd)
				}
			})
		}
	}
	return h, st
}

// Search answers a batch of queries in parallel and returns the per-query
// results plus aggregated stats. The phase-1 scans run as a single tiled
// BF(Q,R) front half — query tiles against representative tiles — before
// the per-query pruning and list scans.
func (e *Exact) Search(queries *vec.Dataset) ([]Result, Stats) {
	e.checkDim(queries.Dim)
	out := make([]Result, queries.N())
	agg := e.batch(queries, 1, func(i int, h *par.KHeap) {
		nb, ok := h.Best()
		if !ok {
			out[i] = Result{ID: -1, Dist: math.Inf(1)}
			return
		}
		out[i] = Result{ID: nb.ID, Dist: e.ker.ToDistance(nb.Dist)}
	})
	return out, agg
}

// SearchK answers a batch of k-NN queries in parallel.
func (e *Exact) SearchK(queries *vec.Dataset, k int) ([][]par.Neighbor, Stats) {
	e.checkDim(queries.Dim)
	out := make([][]par.Neighbor, queries.N())
	if k <= 0 {
		return out, Stats{}
	}
	agg := e.batch(queries, k, func(i int, h *par.KHeap) {
		out[i] = e.finish(h)
	})
	return out, agg
}

// KNNBatch is the batch-first k-NN entry point (search.BatchSearcher):
// the whole query block shares one tiled BF(Q,R) front half before the
// per-query back halves run. Results are bit-identical to calling KNN per
// query.
func (e *Exact) KNNBatch(queries *vec.Dataset, k int) ([][]par.Neighbor, Stats) {
	return e.SearchK(queries, k)
}

// batch answers a query block. A pristine index takes the fully grouped
// path (batch_grouped.go): tiled BF(Q,R) front half plus per-list tiled
// phase-2 scans shared across the block. Once dynamic state exists
// (tombstones, insertion buffers) the block still shares the tiled front
// half but runs the per-query back half, which knows how to consult that
// state. Both paths are bit-identical to per-query KNN.
func (e *Exact) batch(queries *vec.Dataset, k int, sink func(i int, h *par.KHeap)) Stats {
	if e.mut == nil {
		return e.batchGrouped(queries, k, sink)
	}
	return TileFrontHalf(e.fker, queries, e.repData, e.repNorms,
		func(i int, row []float64, sc *par.Scratch, _ *metric.TileScratch) Stats {
			h, st := e.one(queries.Row(i), k, row, sc)
			sink(i, h)
			return st
		})
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
	agg := TileFrontHalf(e.fker, queries, e.repData, e.repNorms,
		func(i int, row []float64, sc *par.Scratch, _ *metric.TileScratch) Stats {
			hits, st := e.rangeOne(queries.Row(i), eps, row, sc)
			out[i] = hits
			return st
		})
	return out, agg
}

// rangeOne runs the two-phase range search. ordRow optionally carries
// precomputed phase-1 *fast-grade* ordering distances (the batched
// BF(Q,R) front half, which runs e.fker); nil computes them here.
//
// Phase 1 uses the same bracketed-with-exact-fallback scheme as one():
// ρ(q,r) is only ever compared (radius prune, admissible window), never
// reported — hits are confirmed point by point in exact arithmetic — and
// every comparison is certified through the bracket or resolved by an
// exact rescore, so the prune decisions, scan extents and stats are
// bit-identical to an all-exact phase 1.
func (e *Exact) rangeOne(q []float32, eps float64, ordRow []float64, sc *par.Scratch) ([]par.Neighbor, Stats) {
	nr := e.NumReps()
	dim := e.db.Dim
	st := Stats{RepEvals: int64(nr)}
	qn, slack := e.phase1Slack(q, sc)
	ords := ordRow
	if ords == nil {
		ords = sc.Float64(0, nr)
		e.fker.Tile(q, qn, e.repData.Data, e.repNorms, dim, ords, nil)
	}
	repLo := sc.Float64(1, nr)
	repHi := sc.Float64(2, nr)
	for j, o := range ords {
		repLo[j], repHi[j] = e.bracketOrd(o, slack)
	}
	// Ordering-space prefilter bound for eps; survivors are confirmed in
	// distance space, and OrderingBound guarantees the boundary stays exact.
	epsHi := e.ker.OrderingBound(math.Abs(eps))

	var hits []par.Neighbor
	scratch := sc.Float64(5, 256)
	for j := 0; j < nr; j++ {
		dLo, dHi := repLo[j], repHi[j]
		// Exact rule: prune iff d > eps + ψ_r (strict); the bracket
		// certifies all but the razor case, which the exact distance
		// decides.
		t := eps + e.radii[j]
		if dLo > t {
			st.PrunedPsi++
			continue
		}
		if dHi > t {
			if e.exactRepDist(q, j, repLo, repHi, scratch) > t {
				st.PrunedPsi++
				continue
			}
			dLo, dHi = repLo[j], repHi[j]
		}
		st.RepsKept++
		lo, hi := e.offsets[j], e.offsets[j+1]
		if e.prm.EarlyExit {
			a, b := e.exactWindow(q, j, e.dists[lo:hi], eps, repLo, repHi, scratch)
			lo, hi = lo+a, lo+b
		}
		for blk := lo; blk < hi; blk += len(scratch) {
			end := blk + len(scratch)
			if end > hi {
				end = hi
			}
			out := scratch[:end-blk]
			e.ker.Ordering(q, e.gather[blk*dim:end*dim], dim, out)
			for i, o := range out {
				if o <= epsHi {
					if id := int(e.ids[blk+i]); !e.isDeleted(id) {
						if dd := e.ker.ToDistance(o); dd <= eps {
							hits = append(hits, par.Neighbor{ID: id, Dist: dd})
						}
					}
				}
			}
			st.PointEvals += int64(end - blk)
		}
		if e.mut != nil && len(e.mut.bufIDs[j]) > 0 {
			if e.prm.EarlyExit && dLo != dHi {
				d := e.exactRepDist(q, j, repLo, repHi, scratch)
				dLo, dHi = d, d
			}
			st.PointEvals += e.scanBuffer(j, q, dLo-eps, dHi+eps, scratch[:1], func(id int, o float64) {
				if o <= epsHi {
					if dd := e.ker.ToDistance(o); dd <= eps {
						hits = append(hits, par.Neighbor{ID: id, Dist: dd})
					}
				}
			})
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

// kthSmallest returns the smallest value and the k-th smallest value of
// xs (1-based k). When k exceeds len(xs) the k-th value is +Inf. The
// selection heap comes from sc's heap slot 1.
func kthSmallest(xs []float64, k int, sc *par.Scratch) (first, kth float64) {
	if len(xs) == 0 {
		return math.Inf(1), math.Inf(1)
	}
	if k == 1 {
		_, v := par.ArgMin(xs)
		return v, v
	}
	if k > len(xs) {
		first := xs[0]
		for _, v := range xs[1:] {
			if v < first {
				first = v
			}
		}
		return first, math.Inf(1)
	}
	h := sc.Heap(1, k)
	for i, v := range xs {
		h.Push(i, v)
	}
	best, _ := h.Best()
	kthVal, _ := h.Worst() // the heap is full here, so the root is the k-th
	return best.Dist, kthVal
}
