// Package par supplies the parallel building blocks the paper's brute-force
// primitive decomposes into (§3): a blocked parallel for over independent
// work items, a reduction over per-worker partial results for the
// comparison step, a parallel arg-min, and bounded top-k heaps for k-NN
// selection.
//
// Everything sizes itself from GOMAXPROCS, so the same code exercises a
// single core or a 48-core server without change.
package par

import (
	"runtime"
	"sync"
)

// Workers reports the degree of parallelism used by this package:
// GOMAXPROCS at call time.
func Workers() int { return runtime.GOMAXPROCS(0) }

// ArgMinGrain is the spawn grain of ArgMin's parallel scan. A goroutine
// hand-off costs on the order of a microsecond, so a block must carry at
// least that much work to win; a float64 compare-scan runs at roughly
// 1 element/ns, so 1024 elements ≈ 1µs per block — the spawn break-even.
const ArgMinGrain = 1024

// For runs fn over the index range [0,n) split into contiguous blocks, one
// goroutine per block, with at most Workers() blocks and at least minGrain
// indices per block. fn is called as fn(lo,hi) with lo < hi. Blocks are
// disjoint, so fn may write to per-index state without synchronization.
//
// When the range is smaller than minGrain (or a single worker is
// available) fn runs inline on the calling goroutine, keeping the fast
// path allocation-free.
func For(n, minGrain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if minGrain < 1 {
		minGrain = 1
	}
	workers := Workers()
	blocks := n / minGrain
	if blocks > workers {
		blocks = workers
	}
	if blocks <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(blocks)
	// Distribute the remainder so block sizes differ by at most one.
	size := n / blocks
	rem := n % blocks
	lo := 0
	for b := 0; b < blocks; b++ {
		hi := lo + size
		if b < rem {
			hi++
		}
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
		lo = hi
	}
	wg.Wait()
}

// ForEach runs fn(i) for every i in [0,n) using For with the given grain.
func ForEach(n, minGrain int, fn func(i int)) {
	For(n, minGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// TreeReduce folds xs left to right with combine, which must be
// associative, and returns the zero value of T for empty input. It is the
// reduction step of the paper's brute-force primitive (§3): callers hand
// it one partial result per worker, so there are at most Workers() values
// and a serial fold is the whole job. xs is not modified.
func TreeReduce[T any](xs []T, combine func(a, b T) T) T {
	if len(xs) == 0 {
		var zero T
		return zero
	}
	acc := xs[0]
	for _, x := range xs[1:] {
		acc = combine(acc, x)
	}
	return acc
}

// ArgMin returns the index and value of the smallest element of dists,
// computed with a blocked parallel scan followed by a reduction over the
// per-block minima. Ties break toward the lower index, matching a
// sequential scan exactly. It returns (-1, +Inf-free zero) for empty
// input: idx == -1.
func ArgMin(dists []float64) (idx int, val float64) {
	n := len(dists)
	if n == 0 {
		return -1, 0
	}
	type part struct {
		idx int
		val float64
	}
	workers := Workers()
	blocks := n / ArgMinGrain
	if blocks > workers {
		blocks = workers
	}
	if blocks <= 1 {
		idx, val = 0, dists[0]
		for i := 1; i < n; i++ {
			if dists[i] < val {
				idx, val = i, dists[i]
			}
		}
		return idx, val
	}
	parts := make([]part, blocks)
	size := n / blocks
	rem := n % blocks
	var wg sync.WaitGroup
	wg.Add(blocks)
	lo := 0
	for b := 0; b < blocks; b++ {
		hi := lo + size
		if b < rem {
			hi++
		}
		go func(b, lo, hi int) {
			defer wg.Done()
			bi, bv := lo, dists[lo]
			for i := lo + 1; i < hi; i++ {
				if dists[i] < bv {
					bi, bv = i, dists[i]
				}
			}
			parts[b] = part{idx: bi, val: bv}
		}(b, lo, hi)
		lo = hi
	}
	wg.Wait()
	best := parts[0]
	for _, p := range parts[1:] {
		if p.val < best.val || (p.val == best.val && p.idx < best.idx) {
			best = p
		}
	}
	return best.idx, best.val
}
