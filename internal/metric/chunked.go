package metric

// This file implements the chunked-fast kernel grade: float32 arithmetic
// with bounded-length float32 accumulation, folded into a float64 total
// per chunk. It is the third kernel grade (see the package comment in
// multi.go): exact and Gram-fast kernels widen every operand to float64
// and run four (or two) float64 lanes; the chunked kernels keep the whole
// inner loop in float32 — loads, subtract, multiply, add — so it runs
// conversion-free on eight packed float32 lanes, twice the lanes per
// instruction and half the bytes per lane of the exact grade's AVX2
// body. That buys speed only where the scan is register-blocked (see
// below) and the rows are long: measured, the blocked chunked row passes
// the exact row from about dim 256 up, and the unblocked chunked row is
// slower than the exact row at every dim.
//
// # Accumulation structure and error bound
//
// Each point row is processed in chunks of at most chunkDims = 2^11
// elements. Within a chunk, squared differences accumulate in eight
// independent float32 lanes (each lane sums at most chunkDims/8 + 1
// products); at the chunk boundary the eight lanes are widened and folded
// into a float64 running total. Because every summand (q[j]-x[j])² is
// non-negative, the summation has condition number 1 and the float32
// rounding errors cannot be amplified by cancellation: the chunked
// ordering distance o~ satisfies
//
//	|o~ − o| ≤ ChunkedErrorBound(dim) · o + dim · 2⁻¹²⁶
//
// against the exact-kernel ordering distance o, for any magnitude mix.
// The relative term comes from the standard forward-error bound for
// non-negative summation ((#adds per lane + 3 roundings per term) · 2⁻²⁴
// per chunk, the float64 fold contributing only 2⁻⁵³ terms); the absolute
// term covers float32 underflow of individual squares. The bound carries
// a 2× safety factor.
//
// Out-of-range inputs: each float32 LANE accumulates up to chunkDims/8 =
// 256 squared differences, so a lane overflows to +Inf well before any
// single square reaches MaxFloat32 — a chunk of squared differences
// around 1.3e36 each (|q[j]−x[j]| ≈ 1.2e18) already sums past ~3.4e38,
// and the chunked ordering distance becomes +Inf instead of a finite
// value. The safe envelope is Σ(q[j]−x[j])² < MaxFloat32 per 2^11-dim
// chunk (conservatively |q[j]−x[j]| ≲ 4e17 everywhere). Callers whose
// coordinates can reach that range must use the exact or Gram-fast
// grades.
//
// # Reproducibility
//
// The chunked tile kernel evaluates every (query, point) pair with
// exactly the per-pair loop the chunked row kernel runs, so — like the
// exact grade — chunked results are bit-identical across tile shapes AND
// between Tile and Ordering. What the chunked grade gives up relative to
// the exact grade is agreement with the float64 reference, not internal
// determinism.
//
// # Register blocking
//
// The tile kernel additionally register-blocks the scan: above
// blockedMinPoints rows it processes four point columns per pass over the
// query row (euclidChunkedQuad), so each query chunk is loaded once for
// four accumulator sets instead of four times. The lane structure is
// untouched — each (query, point) pair still accumulates the identical
// 8-lane float32 sequence in the identical order, followed by the
// identical left-to-right float64 fold — so blocked results are
// bit-identical to the unblocked row at every width (1, 2 and 4) and
// ChunkedErrorBound holds unchanged. On amd64 with AVX2 the four-column
// chunk body runs as an assembly kernel (chunked_amd64.s) whose packed
// subtract/multiply/add instructions are elementwise IEEE binary32 — the
// same operations the scalar loop performs lane by lane (no FMA: the Go
// compiler does not fuse the scalar float32 multiply-add either); a
// pure-Go body (chunkedBodyGo) serves every other platform,
// bit-identically. Ordering deliberately stays on the unblocked row: it
// is the reference shape the property tests and the blocked-vs-chunked
// bench gate compare against.

// chunkDims bounds how many float32 products are accumulated before the
// lanes are folded into the float64 total: 2^11, small enough that the
// relative error of a chunk stays near 2⁻¹⁶ while keeping the fold cost
// negligible.
const chunkDims = 1 << 11

// f32Ulp is the float32 unit roundoff 2⁻²⁴.
const f32Ulp = 1.0 / (1 << 24)

// ChunkedErrorBound returns the relative error bound of the chunked
// kernels at dimension dim: the chunked ordering distance differs from
// the exact kernel's by at most ChunkedErrorBound(dim) times the exact
// value, plus an absolute underflow floor of dim·2⁻¹²⁶ (see the file
// comment for the derivation and the overflow caveat).
func ChunkedErrorBound(dim int) float64 {
	m := dim
	if m > chunkDims {
		m = chunkDims
	}
	// Per chunk: ≤ m/8+1 float32 adds per lane, 3 roundings per term
	// (subtract, square, the lane fold), plus the float64 chunk folds for
	// dims beyond one chunk (negligible but covered by the 2× safety
	// factor on the float32 term).
	return 2 * (float64(m)/8 + 4) * f32Ulp
}

// euclidChunkedRow is the chunked float32 row kernel: squared l2 ordering
// distances from q to every row of flat, accumulated per the contract
// above. The inner loop reads, subtracts, multiplies and adds float32
// only — no widening — so it is the vectorizable form of
// Euclidean.OrderingDistances.
func euclidChunkedRow(q, flat []float32, dim int, out []float64) {
	for i := range out {
		out[i] = euclidChunkedPair(q, flat[i*dim:(i+1)*dim])
	}
}

// euclidChunkedPair is the shared per-pair loop of the chunked row and
// tile kernels; keeping it in one place is what makes the chunked grade
// tile-shape stable.
func euclidChunkedPair(q, row []float32) float64 {
	dim := len(q)
	var s float64
	for c0 := 0; c0 < dim; c0 += chunkDims {
		c1 := c0 + chunkDims
		if c1 > dim {
			c1 = dim
		}
		var a0, a1, a2, a3, a4, a5, a6, a7 float32
		j := c0
		for ; j+8 <= c1; j += 8 {
			d0 := q[j] - row[j]
			d1 := q[j+1] - row[j+1]
			d2 := q[j+2] - row[j+2]
			d3 := q[j+3] - row[j+3]
			d4 := q[j+4] - row[j+4]
			d5 := q[j+5] - row[j+5]
			d6 := q[j+6] - row[j+6]
			d7 := q[j+7] - row[j+7]
			a0 += d0 * d0
			a1 += d1 * d1
			a2 += d2 * d2
			a3 += d3 * d3
			a4 += d4 * d4
			a5 += d5 * d5
			a6 += d6 * d6
			a7 += d7 * d7
		}
		for ; j < c1; j++ {
			d := q[j] - row[j]
			a0 += d * d
		}
		s += float64(a0) + float64(a1) + float64(a2) + float64(a3) +
			float64(a4) + float64(a5) + float64(a6) + float64(a7)
	}
	return s
}

// euclidChunkedTile is the chunked tile kernel: each query row streams
// the point block through the shared per-pair arithmetic. No widening, no
// norms, no scratch — the float32 inputs are consumed in place. Above
// blockedMinPoints rows the scan takes the register-blocked form; the
// selection is invisible in the output because blocked and unblocked rows
// are bit-identical (see the file comment).
func euclidChunkedTile(qflat, pflat []float32, dim, nq, np int, out []float64) {
	blocked := np >= blockedMinPoints
	for i := 0; i < nq; i++ {
		q := qflat[i*dim : (i+1)*dim]
		row := out[i*np : (i+1)*np]
		if blocked {
			euclidChunkedRowBlocked(q, pflat, dim, row)
		} else {
			euclidChunkedRow(q, pflat, dim, row)
		}
	}
}

// blockedMinPoints is the point count above which euclidChunkedTile takes
// the register-blocked row form. Because blocked and unblocked scans are
// bit-identical the threshold is purely a performance choice: below two
// full quad passes the blocked form degenerates to the remainder loops
// and has nothing to amortize.
const blockedMinPoints = 8

// euclidChunkedRowBlocked is the register-blocked form of
// euclidChunkedRow: four point columns per pass over the query row, a
// two-column pass for the remainder pair, and the plain per-pair loop for
// a final odd row. Bit-identical to euclidChunkedRow (the per-pair lane
// arithmetic is unchanged; only the interleaving across independent
// output values differs).
func euclidChunkedRowBlocked(q, flat []float32, dim int, out []float64) {
	np := len(out)
	i := 0
	for ; i+4 <= np; i += 4 {
		euclidChunkedQuad(q, flat[i*dim:(i+4)*dim], dim, out[i:i+4])
	}
	if i+2 <= np {
		euclidChunkedDuo(q, flat[i*dim:(i+2)*dim], dim, out[i:i+2])
		i += 2
	}
	if i < np {
		out[i] = euclidChunkedPair(q, flat[i*dim:(i+1)*dim])
	}
}

// euclidChunkedQuad scores q against four consecutive rows. Per chunk the
// aligned body (a multiple of 8 elements) runs through chunkedBody4 —
// AVX2 assembly on capable amd64 hosts, the pure-Go lane loop elsewhere —
// and the sub-lane tail accumulates onto lane 0, exactly as
// euclidChunkedPair does; the float64 folds are left-to-right per row.
func euclidChunkedQuad(q, rows []float32, dim int, out []float64) {
	r0 := rows[0:dim]
	r1 := rows[dim : 2*dim]
	r2 := rows[2*dim : 3*dim]
	r3 := rows[3*dim : 4*dim]
	var s0, s1, s2, s3 float64
	for c0 := 0; c0 < dim; c0 += chunkDims {
		c1 := c0 + chunkDims
		if c1 > dim {
			c1 = dim
		}
		nb := (c1 - c0) &^ 7
		var lanes [4][8]float32
		chunkedBody4(q[c0:c1], r0[c0:c1], r1[c0:c1], r2[c0:c1], r3[c0:c1], nb, &lanes)
		for j := c0 + nb; j < c1; j++ {
			d := q[j] - r0[j]
			lanes[0][0] += d * d
			d = q[j] - r1[j]
			lanes[1][0] += d * d
			d = q[j] - r2[j]
			lanes[2][0] += d * d
			d = q[j] - r3[j]
			lanes[3][0] += d * d
		}
		s0 += foldLanes(&lanes[0])
		s1 += foldLanes(&lanes[1])
		s2 += foldLanes(&lanes[2])
		s3 += foldLanes(&lanes[3])
	}
	out[0] = s0
	out[1] = s1
	out[2] = s2
	out[3] = s3
}

// euclidChunkedDuo is the two-column variant of euclidChunkedQuad, used
// for the remainder pair of a blocked row scan.
func euclidChunkedDuo(q, rows []float32, dim int, out []float64) {
	r0 := rows[0:dim]
	r1 := rows[dim : 2*dim]
	var s0, s1 float64
	for c0 := 0; c0 < dim; c0 += chunkDims {
		c1 := c0 + chunkDims
		if c1 > dim {
			c1 = dim
		}
		nb := (c1 - c0) &^ 7
		var lanes [2][8]float32
		chunkedBodyGo(q[c0:c1], r0[c0:c1], nb, &lanes[0])
		chunkedBodyGo(q[c0:c1], r1[c0:c1], nb, &lanes[1])
		for j := c0 + nb; j < c1; j++ {
			d := q[j] - r0[j]
			lanes[0][0] += d * d
			d = q[j] - r1[j]
			lanes[1][0] += d * d
		}
		s0 += foldLanes(&lanes[0])
		s1 += foldLanes(&lanes[1])
	}
	out[0] = s0
	out[1] = s1
}

// foldLanes widens and folds one accumulator set left to right — the
// exact fold order of euclidChunkedPair's chunk boundary.
func foldLanes(lanes *[8]float32) float64 {
	return float64(lanes[0]) + float64(lanes[1]) + float64(lanes[2]) + float64(lanes[3]) +
		float64(lanes[4]) + float64(lanes[5]) + float64(lanes[6]) + float64(lanes[7])
}

// chunkedBodyGo accumulates one row's 8-lane sums over the aligned chunk
// body (nb a multiple of 8), in the same element order as
// euclidChunkedPair's lane loop. acc must be zeroed by the caller; the
// lanes are written back on return. This is the portable body behind
// chunkedBody4 and the reference the assembly kernel is tested against.
func chunkedBodyGo(q, r []float32, nb int, acc *[8]float32) {
	a0, a1, a2, a3 := acc[0], acc[1], acc[2], acc[3]
	a4, a5, a6, a7 := acc[4], acc[5], acc[6], acc[7]
	q = q[:nb]
	r = r[:nb]
	for j := 0; j+8 <= nb; j += 8 {
		d0 := q[j] - r[j]
		d1 := q[j+1] - r[j+1]
		d2 := q[j+2] - r[j+2]
		d3 := q[j+3] - r[j+3]
		d4 := q[j+4] - r[j+4]
		d5 := q[j+5] - r[j+5]
		d6 := q[j+6] - r[j+6]
		d7 := q[j+7] - r[j+7]
		a0 += d0 * d0
		a1 += d1 * d1
		a2 += d2 * d2
		a3 += d3 * d3
		a4 += d4 * d4
		a5 += d5 * d5
		a6 += d6 * d6
		a7 += d7 * d7
	}
	acc[0], acc[1], acc[2], acc[3] = a0, a1, a2, a3
	acc[4], acc[5], acc[6], acc[7] = a4, a5, a6, a7
}
