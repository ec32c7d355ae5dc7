package metric

import (
	"math"
	"sync"
	"sync/atomic"
)

// This file implements the tiled multi-query kernel layer: distances from a
// *block* of queries to a *block* of points, written into a row-major tile.
// This is the BF(Q,X) matrix-matrix shape of the paper's §3 — the form in
// which the brute-force primitive amortizes memory traffic across queries
// and keeps the inner loop FMA-shaped.
//
// # Ordering distances
//
// All kernels in this layer emit *ordering distances*: a monotone surrogate
// of the true distance that is cheaper to compute in the inner loop.
// For Euclidean the ordering distance is the squared distance (the sqrt is
// deferred to the API boundary); for Minkowski it is the p-th power sum;
// for Manhattan, Chebyshev and generic metrics it is the distance itself.
// Metrics with a non-identity surrogate implement Orderer; the Kernel's
// ToDistance / FromDistance convert at the boundary. Because the
// surrogate is strictly monotone, comparisons, top-k selection and
// tie-breaking (toward lower ids) in ordering space agree exactly with
// distance space.
//
// # Kernel grades
//
// A Kernel resolves a metric's tile implementation once. Two grades
// exist:
//
//   - NewKernel (exact): per-pair arithmetic is bit-identical to the
//     single-query OrderingBatch path, so results are reproducible
//     against the per-query reference down to the last bit, including ties.
//     Euclidean accumulates squared differences in four float64 lanes
//     over the float32 rows in place — an AVX2 body on amd64, the scalar
//     lane loop elsewhere, the same bits either way (see exact.go). Every
//     answer, baseline and probe in the repository runs on this grade.
//   - NewFastKernel (Gram-fast): float64 throughout, but Euclidean uses
//     the Gram decomposition ‖q−x‖² = ‖q‖² + ‖x‖² − 2·q·x over precomputed
//     squared norms, which reassociates the summation: results can differ
//     from the exact kernel in the trailing ulps (never in ordering-space
//     tie handling for bit-identical rows, e.g. duplicate points). The fast
//     kernel is itself tile-shape stable: any tiling of the same (Q, X)
//     yields bit-identical values. It is slower than the exact grade at
//     every dimension and survives only for bruteforce.SearchKFast, which
//     the benchmark module's layer replay still times.
//
// The int8 two-pass scan is not a Kernel: QuantizedView (quant.go) scans
// its own codes, and bruteforce.SearchKQuantized rescores the survivors
// on the exact grade.
//
// NewFastKernel reports IsFast() == true. Consumers whose outputs are
// reported answers under a bit-reproducibility contract (core.Exact,
// OneShot, the distributed shard scans, range searches) guard with
// !IsFast().

// Orderer is implemented by metrics whose kernels emit a monotone surrogate
// of the true distance. ToDistance(FromDistance(d)) == d need not hold
// bitwise; only strict monotonicity on [0, ∞) is required.
type Orderer interface {
	// ToDistance converts an ordering distance to the true distance.
	ToDistance(o float64) float64
	// FromDistance converts a true distance to an ordering distance.
	FromDistance(d float64) float64
}

// OrderingBatch is the vector fast path: ordering distances from one
// query to many points stored contiguously. flat holds len(out) points of
// dimension dim, back to back, exactly as in a vec.Dataset. ToDistance of
// each output equals the metric's Distance for that pair.
type OrderingBatch interface {
	OrderingDistances(q, flat []float32, dim int, out []float64)
}

// tileInvocations counts Kernel.Tile calls process-wide. Tests use it to
// verify that batch search paths actually route through the tiled kernels.
var tileInvocations atomic.Int64

// TileInvocations reports the total number of Kernel.Tile calls made by
// the process so far. Intended for tests and diagnostics.
func TileInvocations() int64 { return tileInvocations.Load() }

// shapeForBudget sizes the query/point tile for dimension dim against a
// per-tile footprint budget of roughly `budget` float32 elements, so the
// point rows and the ordering tile stay cache-resident.
func shapeForBudget(budget, dim int) (tq, tp int) {
	tq = 32
	for tq > 4 && tq*dim > budget {
		tq >>= 1
	}
	tp = budget / dim
	if tp > 512 {
		tp = 512
	}
	if tp < 16 {
		tp = 16
	}
	return tq, tp
}

// TileScratch holds a kernel's reusable buffers (the Gram grade's widened
// tiles and norm vectors) so steady-state tiled search performs no
// per-tile allocation. Acquire with GetTileScratch, release with
// PutTileScratch.
type TileScratch struct {
	wq, wp []float64
	qn, pn []float64
}

var tileScratchPool = sync.Pool{New: func() any { return new(TileScratch) }}

// GetTileScratch returns a pooled TileScratch.
func GetTileScratch() *TileScratch { return tileScratchPool.Get().(*TileScratch) }

// PutTileScratch returns ts to the pool.
func PutTileScratch(ts *TileScratch) { tileScratchPool.Put(ts) }

func growF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Kernel binds a metric to its resolved tile implementation and ordering
// conversions. Construct once (per index or per batch call) and reuse.
type Kernel struct {
	m      Metric[[]float32]
	fast   bool
	euclid bool
	ob     OrderingBatch
	ord    Orderer
}

// NewKernel returns the exact-mode kernel for m: tiled, but bit-identical
// to the per-query reference path.
func NewKernel(m Metric[[]float32]) *Kernel { return newKernel(m, false) }

// NewFastKernel returns the Gram-fast kernel for m (the Gram kernel for
// Euclidean). Values may differ from the exact kernel in the last ulps;
// see the package comment.
func NewFastKernel(m Metric[[]float32]) *Kernel { return newKernel(m, true) }

func newKernel(m Metric[[]float32], fast bool) *Kernel {
	k := &Kernel{m: m, fast: fast}
	_, k.euclid = m.(Euclidean)
	k.ob, _ = m.(OrderingBatch)
	k.ord, _ = m.(Orderer)
	return k
}

// Metric returns the underlying metric.
func (k *Kernel) Metric() Metric[[]float32] { return k.m }

// IsFast reports whether the kernel was constructed with NewFastKernel.
// Gram-grade tile values may differ from the per-query reference in the
// trailing ulps; callers whose results must stay bit-identical to the
// reference (Exact phase 2, the distributed shard scans) assert
// !IsFast().
func (k *Kernel) IsFast() bool { return k.fast }

// ToDistance converts an ordering distance to the true distance.
func (k *Kernel) ToDistance(o float64) float64 {
	if k.ord != nil {
		return k.ord.ToDistance(o)
	}
	return o
}

// FromDistance converts a true distance to the ordering space.
func (k *Kernel) FromDistance(d float64) float64 {
	if k.ord != nil {
		return k.ord.FromDistance(d)
	}
	return d
}

// OrderingBound returns a prefilter bound B guaranteeing that every
// ordering o with ToDistance(o) <= d satisfies o <= B, so range scans can
// reject candidates in ordering space without losing boundary points.
// Identity orderings bound exactly; Euclidean one ulp above d² (sqrt is
// correctly rounded, so no squared value at or below distance d can exceed
// it); orderings built on math.Pow are not correctly rounded, so no finite
// bound is safe and every candidate must be confirmed via ToDistance.
func (k *Kernel) OrderingBound(d float64) float64 {
	switch {
	case k.ord == nil:
		return d
	case k.euclid:
		return math.Nextafter(d*d, math.Inf(1))
	default:
		return math.Inf(1)
	}
}

// NeedsNorms reports whether Tile consumes precomputed squared norms (the
// Gram fast path). Callers that hold a dataset across many searches
// should precompute them once with Norms and pass them to every Tile call.
func (k *Kernel) NeedsNorms() bool { return k.fast && k.euclid }

// Norms fills dst (grown as needed) with the per-row squared l2 norms of
// flat and returns it. It returns nil when the kernel has no use for norms,
// so callers can pass the result straight back to Tile.
func (k *Kernel) Norms(flat []float32, dim int, dst []float64) []float64 {
	if !k.NeedsNorms() {
		return nil
	}
	n := len(flat) / dim
	dst = growF64(dst, n)
	euclidNorms(flat, dim, dst)
	return dst
}

// Tile computes the ordering-distance tile from the queries in qflat to
// the points in pflat: out[i*np+j] = ordering distance from query i to
// point j, with nq = len(qflat)/dim and np = len(pflat)/dim and
// len(out) = nq*np. qn and pn are optional precomputed squared norms
// (used only when NeedsNorms reports true; computed on the fly if nil).
// ts supplies reusable buffers; pass nil for one-off calls.
func (k *Kernel) Tile(qflat []float32, qn []float64, pflat []float32, pn []float64, dim int, out []float64, ts *TileScratch) {
	tileInvocations.Add(1)
	nq := len(qflat) / dim
	np := len(pflat) / dim
	if nq == 0 || np == 0 {
		return
	}
	switch {
	case k.euclid && k.fast:
		if ts == nil {
			ts = GetTileScratch()
			defer PutTileScratch(ts)
		}
		if qn == nil {
			ts.qn = growF64(ts.qn, nq)
			euclidNorms(qflat, dim, ts.qn)
			qn = ts.qn
		}
		if pn == nil {
			ts.pn = growF64(ts.pn, np)
			euclidNorms(pflat, dim, ts.pn)
			pn = ts.pn
		}
		if nq < 4 {
			for i := 0; i < nq; i++ {
				euclidGramRow(qflat[i*dim:(i+1)*dim], qn[i], pflat, pn, dim, out[i*np:(i+1)*np])
			}
			return
		}
		ts.wq = growF64(ts.wq, nq*dim)
		ts.wp = growF64(ts.wp, np*dim)
		widen(qflat, ts.wq)
		widen(pflat, ts.wp)
		euclidGramTile(ts.wq, qn, ts.wp, pn, dim, nq, np, out)
	case k.euclid:
		// Exact tile: the float32 rows scored in place, no widening, no
		// norms, no scratch (see exact.go).
		euclidExactTile(qflat, pflat, dim, nq, np, out)
	case k.ob != nil:
		for i := 0; i < nq; i++ {
			k.ob.OrderingDistances(qflat[i*dim:(i+1)*dim], pflat, dim, out[i*np:(i+1)*np])
		}
	default:
		for i := 0; i < nq; i++ {
			q := qflat[i*dim : (i+1)*dim]
			row := out[i*np : (i+1)*np]
			for j := 0; j < np; j++ {
				row[j] = k.FromDistance(k.m.Distance(q, pflat[j*dim:(j+1)*dim]))
			}
		}
	}
}

// Ordering computes single-query ordering distances from q to every point
// in flat — the streaming (matrix-vector) path. On both grades its
// per-pair arithmetic is the exact grade's four-lane float64 sum,
// bit-identical to the exact-mode Tile.
func (k *Kernel) Ordering(q, flat []float32, dim int, out []float64) {
	if k.ob != nil {
		k.ob.OrderingDistances(q, flat, dim, out)
		return
	}
	for i := range out {
		out[i] = k.FromDistance(k.m.Distance(q, flat[i*dim:(i+1)*dim]))
	}
}

// widen converts a float32 row block to float64 (exactly — every float32
// is representable), so the Gram tile's inner loop runs free of
// conversions.
func widen(src []float32, dst []float64) {
	for i, v := range src {
		dst[i] = float64(v)
	}
}

// euclidNorms writes per-row squared norms of flat with the same two-lane
// accumulation structure as the Gram dot product, so that for bit-identical
// rows the Gram expansion cancels to exactly zero.
func euclidNorms(flat []float32, dim int, out []float64) {
	for i := range out {
		row := flat[i*dim : (i+1)*dim]
		var a, b float64
		j := 0
		for ; j+2 <= dim; j += 2 {
			x0 := float64(row[j])
			x1 := float64(row[j+1])
			a += x0 * x0
			b += x1 * x1
		}
		for ; j < dim; j++ {
			x := float64(row[j])
			a += x * x
		}
		out[i] = a + b
	}
}

// gramFinish assembles the squared distance from the Gram identity,
// clamping the catastrophic-cancellation underflow below zero.
func gramFinish(qn, pn, dot float64) float64 {
	o := qn + pn - 2*dot
	if o < 0 {
		return 0
	}
	return o
}

// euclidGramRow is the single-query Gram kernel reading float32 directly.
// Per-pair arithmetic (two-lane dot, gramFinish) is identical to the
// blocked tile kernel, so tiles of any shape agree bitwise.
func euclidGramRow(q []float32, qn float64, pflat []float32, pn []float64, dim int, out []float64) {
	for j := range out {
		row := pflat[j*dim : (j+1)*dim]
		var a, b float64
		d := 0
		for ; d+2 <= dim; d += 2 {
			a += float64(q[d]) * float64(row[d])
			b += float64(q[d+1]) * float64(row[d+1])
		}
		for ; d < dim; d++ {
			a += float64(q[d]) * float64(row[d])
		}
		out[j] = gramFinish(qn, pn[j], a+b)
	}
}

// euclidGramTile is the cache-blocked Gram kernel over widened tiles:
// each point row is streamed once per four point-columns and reused for
// every query row, so the inner loop is two ALU ops per pair-element.
func euclidGramTile(qw, qn, pw, pn []float64, dim, nq, np int, out []float64) {
	for i := 0; i < nq; i++ {
		qrow := qw[i*dim : (i+1)*dim]
		orow := out[i*np : (i+1)*np]
		qni := qn[i]
		j := 0
		for ; j+4 <= np; j += 4 {
			p0 := pw[(j+0)*dim : (j+1)*dim]
			p1 := pw[(j+1)*dim : (j+2)*dim]
			p2 := pw[(j+2)*dim : (j+3)*dim]
			p3 := pw[(j+3)*dim : (j+4)*dim]
			var a0, b0, a1, b1, a2, b2, a3, b3 float64
			d := 0
			for ; d+2 <= dim; d += 2 {
				x0 := qrow[d]
				x1 := qrow[d+1]
				a0 += x0 * p0[d]
				b0 += x1 * p0[d+1]
				a1 += x0 * p1[d]
				b1 += x1 * p1[d+1]
				a2 += x0 * p2[d]
				b2 += x1 * p2[d+1]
				a3 += x0 * p3[d]
				b3 += x1 * p3[d+1]
			}
			for ; d < dim; d++ {
				x := qrow[d]
				a0 += x * p0[d]
				a1 += x * p1[d]
				a2 += x * p2[d]
				a3 += x * p3[d]
			}
			orow[j] = gramFinish(qni, pn[j], a0+b0)
			orow[j+1] = gramFinish(qni, pn[j+1], a1+b1)
			orow[j+2] = gramFinish(qni, pn[j+2], a2+b2)
			orow[j+3] = gramFinish(qni, pn[j+3], a3+b3)
		}
		for ; j < np; j++ {
			prow := pw[j*dim : (j+1)*dim]
			var a, b float64
			d := 0
			for ; d+2 <= dim; d += 2 {
				a += qrow[d] * prow[d]
				b += qrow[d+1] * prow[d+1]
			}
			for ; d < dim; d++ {
				a += qrow[d] * prow[d]
			}
			orow[j] = gramFinish(qni, pn[j], a+b)
		}
	}
}
