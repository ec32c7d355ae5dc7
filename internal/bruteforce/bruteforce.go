// Package bruteforce implements the paper's brute-force primitive (§3):
// exhaustive distance computation followed by a comparison step. Every RBC
// algorithm is assembled from calls into this package.
//
// Two decompositions are provided, mirroring the paper:
//
//   - batch: BF(Q,X) for a set of queries — the "matrix-matrix" shape,
//     computed as query-tile × point-tile loops over the tiled kernels in
//     internal/metric, so each point tile loaded into cache is reused by a
//     whole block of queries (Search, SearchK);
//   - streaming: BF(q,X) for one query — the "matrix-vector" shape,
//     parallelized over database blocks with a final reduction (SearchOne).
//
// All comparison steps run in squared-distance (ordering) space; the sqrt
// is applied once per returned neighbor at the API boundary. Apart from
// the three exceptions below, every entry point runs on the exact kernel
// grade: per-pair arithmetic, reported distances and tie-breaking are
// bit-identical to an ordering-space per-query scan regardless of tile
// shape. Relative to the legacy
// post-sqrt per-query scan, selections agree except when two *distinct*
// squared distances round to the same sqrt (a one-ulp razor tie the old
// comparison could not see); there the ordering-space paths return the
// strictly nearer point. The exceptions: SearchKQuantized and
// SearchKQuantizedView generate candidates over int8 codes and rescore
// them exactly (quantized.go), and SearchKFast runs the Gram-fast kernel,
// whose distances can differ in the trailing ulps.
//
// All functions optionally report work through a Counter so experiments
// can measure distance evaluations independent of the machine.
package bruteforce

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/vec"
)

// Counter accumulates distance evaluations across goroutines. The zero
// value is ready to use. A nil *Counter is accepted everywhere and simply
// not updated.
type Counter struct {
	n atomic.Int64
}

// Add records n distance evaluations.
func (c *Counter) Add(n int) {
	if c != nil {
		c.n.Add(int64(n))
	}
}

// Load returns the total recorded so far.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Reset zeroes the counter.
func (c *Counter) Reset() {
	if c != nil {
		c.n.Store(0)
	}
}

// scanChunk is how many database rows a worker scans per scratch refill.
// It is sized so the scratch distance buffer stays inside L1.
const scanChunk = 1024

// scanFlatBest is the per-query reference scan retained from before the
// tiled kernels: one conversion to distance (a sqrt, for Euclidean) per
// candidate, database re-streamed per query. It remains the baseline that
// BenchmarkBFPerQuery and the exactness tests measure the tiled paths
// against.
func scanFlatBest(ker *metric.Kernel, q, flat []float32, dim, base int, c *Counter) par.Neighbor {
	npts := len(flat) / dim
	best := par.Neighbor{ID: -1, Dist: math.Inf(1)}
	var scratch [scanChunk]float64
	for lo := 0; lo < npts; lo += scanChunk {
		hi := lo + scanChunk
		if hi > npts {
			hi = npts
		}
		out := scratch[:hi-lo]
		ker.Ordering(q, flat[lo*dim:hi*dim], dim, out)
		for i, o := range out {
			if d := ker.ToDistance(o); d < best.Dist {
				best = par.Neighbor{ID: base + lo + i, Dist: d}
			}
		}
	}
	c.Add(npts)
	return best
}

// searchPerQuery is the pre-tiling batch implementation (one full database
// stream per query), kept as the reference and benchmark baseline.
func searchPerQuery(queries, db *vec.Dataset, m metric.Metric[[]float32], c *Counter) []par.Neighbor {
	ker := metric.NewKernel(m)
	out := make([]par.Neighbor, queries.N())
	par.ForEach(queries.N(), 1, func(i int) {
		out[i] = scanFlatBest(ker, queries.Row(i), db.Data, db.Dim, 0, c)
	})
	return out
}

// scanBestOrd is the ordering-space streaming scan: like scanFlatBest but
// without the per-candidate conversion. The returned neighbor carries an
// ordering distance; the caller converts at the boundary.
func scanBestOrd(ker *metric.Kernel, q, flat []float32, dim, base int, c *Counter) par.Neighbor {
	npts := len(flat) / dim
	best := par.Neighbor{ID: -1, Dist: math.Inf(1)}
	var scratch [scanChunk]float64
	for lo := 0; lo < npts; lo += scanChunk {
		hi := lo + scanChunk
		if hi > npts {
			hi = npts
		}
		out := scratch[:hi-lo]
		ker.Ordering(q, flat[lo*dim:hi*dim], dim, out)
		for i, d := range out {
			if d < best.Dist {
				best = par.Neighbor{ID: base + lo + i, Dist: d}
			}
		}
	}
	c.Add(npts)
	return best
}

// SearchOne finds the nearest neighbor of a single query with the
// streaming decomposition: the database is split into blocks scanned in
// parallel, and the per-block minima are combined with a tree reduction —
// exactly the parallel-reduce comparison step of §3.
func SearchOne(q []float32, db *vec.Dataset, m metric.Metric[[]float32], c *Counter) par.Neighbor {
	n := db.N()
	if n == 0 {
		return par.Neighbor{ID: -1, Dist: math.Inf(1)}
	}
	ker := metric.NewKernel(m)
	workers := par.Workers()
	var best par.Neighbor
	if workers == 1 || n < 4*scanChunk {
		best = scanBestOrd(ker, q, db.Data, db.Dim, 0, c)
	} else {
		blocks := workers
		parts := make([]par.Neighbor, blocks)
		var wg sync.WaitGroup
		wg.Add(blocks)
		size := n / blocks
		rem := n % blocks
		lo := 0
		for b := 0; b < blocks; b++ {
			hi := lo + size
			if b < rem {
				hi++
			}
			go func(b, lo, hi int) {
				defer wg.Done()
				parts[b] = scanBestOrd(ker, q, db.Data[lo*db.Dim:hi*db.Dim], db.Dim, lo, c)
			}(b, lo, hi)
			lo = hi
		}
		wg.Wait()
		best = par.TreeReduce(parts, func(a, b par.Neighbor) par.Neighbor {
			if b.Dist < a.Dist || (b.Dist == a.Dist && b.ID < a.ID) {
				return b
			}
			return a
		})
	}
	best.Dist = ker.ToDistance(best.Dist)
	return best
}

// Search is BF(Q,X): the exact nearest neighbor in db for every query,
// computed as query-tile × point-tile loops over the exact-mode tiled
// kernel (bit-identical to the per-query ordering-space reference, ties
// included; see the package comment for the one sqrt-rounding caveat
// against the legacy post-sqrt scan).
func Search(queries, db *vec.Dataset, m metric.Metric[[]float32], c *Counter) []par.Neighbor {
	nq := queries.N()
	out := make([]par.Neighbor, nq)
	if nq == 0 {
		return out
	}
	n, dim := db.N(), db.Dim
	if n == 0 {
		for i := range out {
			out[i] = par.Neighbor{ID: -1, Dist: math.Inf(1)}
		}
		return out
	}
	ker := metric.NewKernel(m)
	tq, tp := metric.TileShape(dim)
	par.For(nq, 1, func(lo, hi int) {
		sc := par.GetScratch()
		defer par.PutScratch(sc)
		tile := sc.Float64(0, tq*tp)
		bestOrd := sc.Float64(1, tq)
		bestID := sc.Ints(0, tq)
		for q0 := lo; q0 < hi; q0 += tq {
			q1 := q0 + tq
			if q1 > hi {
				q1 = hi
			}
			bq := q1 - q0
			qflat := queries.Data[q0*dim : q1*dim]
			for i := 0; i < bq; i++ {
				bestOrd[i] = math.Inf(1)
				bestID[i] = -1
			}
			for p0 := 0; p0 < n; p0 += tp {
				p1 := p0 + tp
				if p1 > n {
					p1 = n
				}
				bp := p1 - p0
				t := tile[:bq*bp]
				ker.Tile(qflat, nil, db.Data[p0*dim:p1*dim], nil, dim, t, nil)
				for i := 0; i < bq; i++ {
					row := t[i*bp : (i+1)*bp]
					bo, bi := bestOrd[i], bestID[i]
					for j, o := range row {
						if o < bo {
							bo, bi = o, p0+j
						}
					}
					bestOrd[i], bestID[i] = bo, bi
				}
			}
			for i := 0; i < bq; i++ {
				out[q0+i] = par.Neighbor{ID: bestID[i], Dist: ker.ToDistance(bestOrd[i])}
			}
		}
	})
	c.Add(nq * n)
	return out
}

// normsParallel precomputes the database's squared norms for kernels that
// consume them (nil otherwise), amortizing the pass over the whole batch.
func normsParallel(ker *metric.Kernel, db *vec.Dataset) []float64 {
	if !ker.NeedsNorms() {
		return nil
	}
	n, dim := db.N(), db.Dim
	out := make([]float64, n)
	par.For(n, 1024, func(lo, hi int) {
		ker.Norms(db.Data[lo*dim:hi*dim], dim, out[lo:hi])
	})
	return out
}

// SearchK is the k-NN generalization of Search: for each query it returns
// the k nearest database points sorted by ascending distance (ties toward
// the lower id), bit-identical to the per-query ordering-space reference
// (SearchOneK). When the database has fewer than k points, all of them
// are returned.
func SearchK(queries, db *vec.Dataset, k int, m metric.Metric[[]float32], c *Counter) [][]par.Neighbor {
	return searchKTiled(queries, db, k, metric.NewKernel(m), c)
}

// SearchKFast is SearchK on the Gram-fast kernel (the Gram decomposition
// with precomputed squared norms for Euclidean). Distances can differ
// from the per-query reference in the trailing ulps; ids agree except at
// ties closer than that noise, and exact duplicates still tie toward the
// lower id.
func SearchKFast(queries, db *vec.Dataset, k int, m metric.Metric[[]float32], c *Counter) [][]par.Neighbor {
	return searchKTiled(queries, db, k, metric.NewFastKernel(m), c)
}

func searchKTiled(queries, db *vec.Dataset, k int, ker *metric.Kernel, c *Counter) [][]par.Neighbor {
	nq := queries.N()
	out := make([][]par.Neighbor, nq)
	if nq == 0 {
		return out
	}
	n, dim := db.N(), db.Dim
	if n == 0 || k <= 0 {
		return out
	}
	pnorms := normsParallel(ker, db)
	tq, tp := metric.TileShape(dim)
	par.For(nq, 1, func(lo, hi int) {
		sc := par.GetScratch()
		defer par.PutScratch(sc)
		ts := metric.GetTileScratch()
		defer metric.PutTileScratch(ts)
		tile := sc.Float64(0, tq*tp)
		for q0 := lo; q0 < hi; q0 += tq {
			q1 := q0 + tq
			if q1 > hi {
				q1 = hi
			}
			bq := q1 - q0
			qflat := queries.Data[q0*dim : q1*dim]
			qnorms := ker.Norms(qflat, dim, sc.Float64(2, bq))
			heaps := sc.HeapSlab(bq, k)
			for p0 := 0; p0 < n; p0 += tp {
				p1 := p0 + tp
				if p1 > n {
					p1 = n
				}
				bp := p1 - p0
				var pn []float64
				if pnorms != nil {
					pn = pnorms[p0:p1]
				}
				t := tile[:bq*bp]
				ker.Tile(qflat, qnorms, db.Data[p0*dim:p1*dim], pn, dim, t, ts)
				for i := 0; i < bq; i++ {
					row := t[i*bp : (i+1)*bp]
					h := heaps[i]
					for j, o := range row {
						h.Push(p0+j, o)
					}
				}
			}
			for i := 0; i < bq; i++ {
				res := heaps[i].Results()
				for r := range res {
					res[r].Dist = ker.ToDistance(res[r].Dist)
				}
				// Re-establish (dist, id) order: the conversion can map
				// distinct ordering values to equal distances.
				par.SortNeighbors(res)
				out[q0+i] = res
			}
		}
	})
	c.Add(nq * n)
	return out
}

// SearchOneK returns the k nearest neighbors of one query.
func SearchOneK(q []float32, db *vec.Dataset, k int, m metric.Metric[[]float32], c *Counter) []par.Neighbor {
	n := db.N()
	if n == 0 || k <= 0 {
		return nil
	}
	ker := metric.NewKernel(m)
	sc := par.GetScratch()
	defer par.PutScratch(sc)
	h := sc.Heap(0, k)
	var scratch [scanChunk]float64
	for lo := 0; lo < n; lo += scanChunk {
		hi := lo + scanChunk
		if hi > n {
			hi = n
		}
		out := scratch[:hi-lo]
		ker.Ordering(q, db.Data[lo*db.Dim:hi*db.Dim], db.Dim, out)
		for i, d := range out {
			h.Push(lo+i, d)
		}
	}
	c.Add(n)
	res := h.Results()
	for i := range res {
		res[i].Dist = ker.ToDistance(res[i].Dist)
	}
	par.SortNeighbors(res)
	return res
}

// rescoreBlock is how many candidate rows rescoreK gathers per kernel
// call; sized so the gathered block and its ordering row stay cache-hot.
const rescoreBlock = 256

// rescoreK ranks the database rows listed in ids by distance to q and
// returns the k nearest, sorted ascending (ties toward the lower id).
// Candidates are gathered into a contiguous scratch block and scored
// through ker's row kernel — the BF(q, X[L]) candidate-rescoring shape
// that the quantized scan's pass-1 survivors produce — so the inner loop
// runs on the row kernel instead of per-pair Distance calls. Duplicate
// ids in ids yield duplicate results; callers dedupe beforehand.
func rescoreK(ker *metric.Kernel, q []float32, db *vec.Dataset, ids []int, k int, c *Counter) []par.Neighbor {
	if k <= 0 || len(ids) == 0 {
		return nil
	}
	dim := db.Dim
	sc := par.GetScratch()
	defer par.PutScratch(sc)
	h := sc.Heap(0, k)
	blk := rescoreBlock
	if blk > len(ids) {
		blk = len(ids)
	}
	buf := sc.Float32(1, blk*dim)
	ords := sc.Float64(0, blk)
	for lo := 0; lo < len(ids); lo += blk {
		hi := lo + blk
		if hi > len(ids) {
			hi = len(ids)
		}
		for t, id := range ids[lo:hi] {
			copy(buf[t*dim:(t+1)*dim], db.Row(id))
		}
		out := ords[:hi-lo]
		ker.Ordering(q, buf[:(hi-lo)*dim], dim, out)
		for t, o := range out {
			h.Push(ids[lo+t], o)
		}
	}
	c.Add(len(ids))
	res := h.Results()
	for i := range res {
		res[i].Dist = ker.ToDistance(res[i].Dist)
	}
	par.SortNeighbors(res)
	return res
}

// RangeSearch returns every database point within distance eps of q,
// sorted by ascending distance (ties by id). The scan runs in ordering
// space with a loose prefilter; candidates that survive it are confirmed
// against eps in distance space, so membership matches the per-query
// reference exactly.
func RangeSearch(q []float32, db *vec.Dataset, eps float64, m metric.Metric[[]float32], c *Counter) []par.Neighbor {
	n := db.N()
	ker := metric.NewKernel(m)
	// Ordering-space prefilter; candidates that survive are confirmed
	// against eps in distance space, and OrderingBound guarantees no
	// boundary point is rejected early.
	epsHi := ker.OrderingBound(math.Abs(eps))
	var hits []par.Neighbor
	var scratch [scanChunk]float64
	for lo := 0; lo < n; lo += scanChunk {
		hi := lo + scanChunk
		if hi > n {
			hi = n
		}
		out := scratch[:hi-lo]
		ker.Ordering(q, db.Data[lo*db.Dim:hi*db.Dim], db.Dim, out)
		for i, o := range out {
			if o <= epsHi {
				if d := ker.ToDistance(o); d <= eps {
					hits = append(hits, par.Neighbor{ID: lo + i, Dist: d})
				}
			}
		}
	}
	c.Add(n)
	par.SortNeighbors(hits)
	return hits
}
