package bruteforce

import (
	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/vec"
)

// This file implements the two-pass quantized brute-force scan: a
// candidate pass over int8 codes (metric.QuantizedView — 1 byte per
// coordinate, built for the memory-bound regime where the float scan is
// limited by DRAM bandwidth) followed by exact rescoring that restores
// bit-true reported distances.
//
// # The two-pass contract
//
// Pass 1 scans the quantized view and keeps the k' = QuantOverfetch·k
// best candidates per query in ordering space. Pass 2 rescores those
// candidates with the EXACT kernel (rescoreK) and returns the top k, so
// reported distances — and tie-breaking — are computed by exactly the
// per-pair arithmetic SearchK uses. What the two-pass scan does NOT
// certify is candidate recall: a true neighbor whose quantized distance
// lands beyond the k'-th candidate is lost. The over-fetch absorbs
// quantization noise of ±view.ErrorBound() per distance; with the
// default α = 8 the equivalence corpus reproduces SearchK bit for bit
// (asserted in internal/search), but adversarial data can defeat any
// fixed α — callers needing certified answers use the exact paths.
// Whenever k' ≥ n the candidate pass keeps everything and the result is
// exact by construction.

// QuantOverfetch is α, the candidate over-fetch factor of the quantized
// two-pass scans: pass 1 keeps α·k candidates for pass 2 to rescore.
const QuantOverfetch = 8

// quantMinFetch floors the pass-1 candidate count: at small k the α·k
// budget is thinner than the quantization noise band (many points can sit
// within ±ErrorBound of the k-th distance), and rescoring a few dozen
// rows costs nothing next to the scan it replaces.
const quantMinFetch = 64

// quantPassK returns the pass-1 heap size for a request of k among n
// rows.
func quantPassK(k, n int) int {
	kp := k * QuantOverfetch
	if kp < quantMinFetch {
		kp = quantMinFetch
	}
	if kp < k { // overflow paranoia
		kp = k
	}
	if kp > n {
		kp = n
	}
	return kp
}

// SearchKQuantized is the k-NN two-pass quantized scan: candidate
// generation over int8 codes, exact rescoring of the over-fetch
// survivors. Reported distances are bit-identical to SearchK for every
// neighbor that survives pass 1 (see the two-pass contract above). The
// Counter records both passes: n quantized evaluations per query plus the
// exact rescores. The view is built once per call (O(n·dim)) and amortizes
// over the query batch; callers that scan the same database repeatedly
// should hold a view and use SearchKQuantizedView.
func SearchKQuantized(queries, db *vec.Dataset, k int, m metric.Metric[[]float32], c *Counter) [][]par.Neighbor {
	if queries.N() == 0 || db.N() == 0 || k <= 0 {
		return make([][]par.Neighbor, queries.N())
	}
	return SearchKQuantizedView(queries, db, k, metric.NewQuantizedView(db.Data, db.Dim), m, c)
}

// SearchKQuantizedView is SearchKQuantized over a caller-held view
// (which must have been built over db's current data).
func SearchKQuantizedView(queries, db *vec.Dataset, k int, v *metric.QuantizedView, m metric.Metric[[]float32], c *Counter) [][]par.Neighbor {
	nq := queries.N()
	out := make([][]par.Neighbor, nq)
	if nq == 0 {
		return out
	}
	n, dim := db.N(), db.Dim
	if n == 0 || k <= 0 {
		return out
	}
	if v.N() != n || v.Dim() != dim {
		panic("bruteforce: quantized view does not match the database")
	}
	xker := metric.NewKernel(m)
	kp := quantPassK(k, n)
	par.ForEach(nq, 1, func(i int) {
		sc := par.GetScratch()
		defer par.PutScratch(sc)
		q := queries.Row(i)
		qc := v.QuantizeQuery(q, sc.Int8s(0, v.Stride()))
		h := sc.Heap(1, kp)
		ords := sc.Float64(5, scanChunk)
		for lo := 0; lo < n; lo += scanChunk {
			hi := lo + scanChunk
			if hi > n {
				hi = n
			}
			blk := ords[:hi-lo]
			v.OrderingRange(qc, lo, hi, blk)
			for j, o := range blk {
				h.Push(lo+j, o)
			}
		}
		c.Add(n)
		cands := h.Results()
		ids := sc.Ints(4, len(cands))
		for j, nb := range cands {
			ids[j] = nb.ID
		}
		out[i] = rescoreK(xker, q, db, ids, k, c)
	})
	return out
}
