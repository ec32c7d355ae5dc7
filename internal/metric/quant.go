package metric

import "math"

// This file implements int8 scalar quantization of a point matrix with an
// integer multiply-accumulate scan: the candidate pass of the two-pass
// brute-force scan (bruteforce.SearchKQuantized). The exact grade streams
// 4 bytes per coordinate; the codes stream 1, and beyond cache-resident n
// the scan is memory-bound, so the 4× smaller resident set converts
// directly into row-scan throughput.
//
// # Codes and memory layout
//
// A QuantizedView is built once over a flat row-major float32 matrix
// and holds:
//
//   - codes: one int8 per coordinate, row-major with a padded stride.
//     Each dimension chunk of at most chunkDims = 2^11 coordinates is
//     padded up to a multiple of quantAlign = 16 so the inner loop needs
//     no scalar tail; pad lanes are zero in both points and queries and
//     contribute nothing to any distance.
//   - offsets: one float64 center per logical dimension (the midpoint of
//     the data's per-dimension range). Offsets cancel in differences, so
//     they never appear in the inner loop.
//   - scales: one float64 step per dimension chunk,
//     scale_c = max_range_c / 254, chosen so every in-range coordinate
//     quantizes to a code in [-127, 127].
//
// A coordinate x in dimension j of chunk c is encoded as
// round((x − offset_j) / scale_c), clamped to [-127, 127]; queries are
// quantized the same way, once per scan. The quantized squared distance is
//
//	ô(q, x) = Σ_c scale_c² · Σ_{j ∈ c} (cq_j − cx_j)²
//
// The inner sum is pure int8→int32 multiply-accumulate — no float
// conversion per coordinate — folded to float64 once per (row, chunk).
// Because integer accumulation is exact, ô is bit-identical for any
// evaluation order: any split of a row range scores the same bits, and
// the AVX2 path (quant_amd64.s) agrees with the pure-Go loop bit for bit.
//
// # Error contract
//
// Each in-range coordinate quantizes with error at most scale_c/2, so for
// a query inside the view's per-dimension envelope the distance error is
// bounded by the quantization noise of both operands:
//
//	|d(q,x) − √ô(q,x)| ≤ sqrt(Σ_c w_c·scale_c²) ≤ QuantErrorBound(dim, maxScale)
//
// with w_c the chunk widths. ErrorBound reports the view's exact bound;
// QuantErrorBound(dim, scale) is the conservative closed form. Queries
// outside the envelope clamp to ±127 and the bound no longer holds, so
// quantized distances are never reported: the two-pass scan restores
// exact reported distances by rescoring candidates on the exact kernel;
// see the two-pass contract on bruteforce.SearchKQuantized.
//
// Degenerate chunks (constant across the data, scale 0) encode every
// point as code 0 and contribute 0 to every ô: a constant offset in
// ordering space that never changes candidate ranking, and exactness is
// restored by the rescoring pass.

const (
	// chunkDims bounds how many coordinates share one scale and one int32
	// accumulator fold: 2^11, far inside int32 range for the squared code
	// differences a chunk sums.
	chunkDims = 1 << 11
	// quantLevels is the number of quantization steps across a chunk's
	// widest per-dimension range: codes span [-127, 127].
	quantLevels = 254
	// quantAlign is the code-row alignment: each chunk's code block is
	// padded to a multiple of 16 int8 lanes so the integer inner loop
	// (and its AVX2 form) needs no scalar tail.
	quantAlign = 16
)

// quantSafety absorbs the float64 roundings of the per-chunk folds and
// the final sqrt when comparing quantized to exact distances.
const quantSafety = 1 + 1e-9

// QuantErrorBound returns the additive DISTANCE-space error bound of a
// quantized view with maximum chunk scale `scale` at dimension dim: for
// queries inside the view's per-dimension envelope,
// |d(q,x) − √ô(q,x)| ≤ QuantErrorBound(dim, scale). Quantization noise is
// absolute — scale/2 per coordinate per operand — so the contract is
// additive.
func QuantErrorBound(dim int, scale float64) float64 {
	return scale * math.Sqrt(float64(dim)) * quantSafety
}

// QuantizedView is the int8-quantized image of a flat row-major float32
// matrix: codes plus the dequantization parameters needed to fold integer
// accumulators back to float64 ordering distances. Build once (O(n·dim))
// and reuse across scans. A view must be rebuilt if the source data
// changes.
type QuantizedView struct {
	dim    int // logical dimension
	n      int // rows
	stride int // padded code-row width (sum of padded chunk widths)

	chunkW []int // logical width of each chunk
	chunkP []int // padded width of each chunk (multiple of quantAlign)
	chunkO []int // offset of each chunk inside a padded code row

	codes   []int8    // n*stride, pad lanes zero
	offsets []float64 // per logical dimension
	scales  []float64 // per chunk
	invs    []float64 // 1/scale per chunk (0 for degenerate chunks)
	sqs     []float64 // scale² per chunk

	maxScale float64
	bound    float64 // sqrt(Σ_c w_c·scale_c²) · quantSafety
}

// NewQuantizedView quantizes the n = len(flat)/dim rows of flat. The view
// copies what it needs; flat is neither retained nor mutated.
func NewQuantizedView(flat []float32, dim int) *QuantizedView {
	if dim <= 0 {
		panic("metric: NewQuantizedView with non-positive dim")
	}
	if len(flat)%dim != 0 {
		panic("metric: NewQuantizedView flat length not a multiple of dim")
	}
	n := len(flat) / dim
	nc := (dim + chunkDims - 1) / chunkDims
	if nc == 0 {
		nc = 1
	}
	v := &QuantizedView{
		dim: dim, n: n,
		chunkW: make([]int, nc), chunkP: make([]int, nc), chunkO: make([]int, nc),
		offsets: make([]float64, dim),
		scales:  make([]float64, nc), invs: make([]float64, nc), sqs: make([]float64, nc),
	}
	for c := 0; c < nc; c++ {
		w := dim - c*chunkDims
		if w > chunkDims {
			w = chunkDims
		}
		v.chunkW[c] = w
		v.chunkP[c] = (w + quantAlign - 1) &^ (quantAlign - 1)
		v.chunkO[c] = v.stride
		v.stride += v.chunkP[c]
	}

	// Pass 1: per-dimension bounds over the data.
	lo := make([]float64, dim)
	hi := make([]float64, dim)
	for j := 0; j < dim; j++ {
		lo[j] = math.Inf(1)
		hi[j] = math.Inf(-1)
	}
	for r := 0; r < n; r++ {
		row := flat[r*dim : (r+1)*dim]
		for j, x := range row {
			f := float64(x)
			if f < lo[j] {
				lo[j] = f
			}
			if f > hi[j] {
				hi[j] = f
			}
		}
	}

	// Offsets are the range midpoints; one scale per chunk, wide enough
	// for the chunk's widest dimension.
	var sumSq float64
	for c := 0; c < nc; c++ {
		j0 := c * chunkDims
		j1 := j0 + v.chunkW[c]
		var span float64
		for j := j0; j < j1 && j < dim; j++ {
			if n == 0 {
				v.offsets[j] = 0
				continue
			}
			v.offsets[j] = lo[j] + (hi[j]-lo[j])/2
			if s := hi[j] - lo[j]; s > span {
				span = s
			}
		}
		v.scales[c] = span / quantLevels
		if v.scales[c] > 0 {
			v.invs[c] = 1 / v.scales[c]
		}
		v.sqs[c] = v.scales[c] * v.scales[c]
		if v.scales[c] > v.maxScale {
			v.maxScale = v.scales[c]
		}
		sumSq += float64(v.chunkW[c]) * v.sqs[c]
	}
	v.bound = math.Sqrt(sumSq) * quantSafety
	// The closed form QuantErrorBound(dim, maxScale) dominates
	// mathematically; clamp so the two never disagree by a stray ulp.
	if cf := QuantErrorBound(v.dim, v.maxScale); v.bound > cf {
		v.bound = cf
	}

	// Pass 2: encode. Pad lanes stay zero.
	v.codes = make([]int8, n*v.stride)
	for r := 0; r < n; r++ {
		v.encodeRow(flat[r*dim:(r+1)*dim], v.codes[r*v.stride:(r+1)*v.stride])
	}
	return v
}

// N reports the number of encoded rows.
func (v *QuantizedView) N() int { return v.n }

// Dim reports the logical dimension.
func (v *QuantizedView) Dim() int { return v.dim }

// Stride reports the padded width of one code row; QuantizeQuery
// destinations are grown to this length.
func (v *QuantizedView) Stride() int { return v.stride }

// Bytes reports the resident size of the code matrix.
func (v *QuantizedView) Bytes() int { return len(v.codes) }

// MaxScale reports the largest chunk scale, the argument QuantErrorBound
// pairs with this view's dimension.
func (v *QuantizedView) MaxScale() float64 { return v.maxScale }

// ErrorBound reports the view's additive distance-space error bound:
// |d(q,x) − √ô(q,x)| ≤ ErrorBound() for any stored row x and any query q
// inside the view's per-dimension envelope. It is at most
// QuantErrorBound(Dim(), MaxScale()).
func (v *QuantizedView) ErrorBound() float64 { return v.bound }

// quantCode rounds t half away from zero and clamps to [-127, 127].
// NaN (from Inf−Inf degeneracies upstream) encodes as 0.
func quantCode(t float64) int8 {
	switch {
	case t != t:
		return 0
	case t >= 127:
		return 127
	case t <= -127:
		return -127
	case t >= 0:
		return int8(int32(t + 0.5))
	default:
		return int8(int32(t - 0.5))
	}
}

// encodeRow quantizes one logical row into one padded code row. dst pad
// lanes must already be zero (freshly allocated or previously written by
// encodeRow, which zeroes them).
func (v *QuantizedView) encodeRow(row []float32, dst []int8) {
	for c := range v.chunkW {
		j0 := c * chunkDims
		w := v.chunkW[c]
		o := v.chunkO[c]
		inv := v.invs[c]
		off := v.offsets[j0 : j0+w]
		src := row[j0 : j0+w]
		out := dst[o : o+w]
		if inv == 0 {
			for j := range out {
				out[j] = 0
			}
		} else {
			for j, x := range src {
				out[j] = quantCode((float64(x) - off[j]) * inv)
			}
		}
		for j := w; j < v.chunkP[c]; j++ {
			dst[o+j] = 0
		}
	}
}

// QuantizeQuery encodes q with the view's parameters, growing dst (to
// Stride()) as needed, and returns it. Coordinates outside the view's
// envelope clamp to ±127 — ranking stays sensible but the ErrorBound
// contract no longer covers such queries; see the file comment.
func (v *QuantizedView) QuantizeQuery(q []float32, dst []int8) []int8 {
	if len(q) != v.dim {
		panic("metric: QuantizeQuery dimension mismatch")
	}
	if cap(dst) < v.stride {
		dst = make([]int8, v.stride)
	}
	dst = dst[:v.stride]
	v.encodeRow(q, dst)
	return dst
}

// quantAccBlock bounds how many rows the scan kernels score per integer
// pass, so the int32 accumulator block stays stack-sized and hot.
const quantAccBlock = 512

// OrderingRange writes quantized squared-distance orderings from the
// encoded query qc (a QuantizeQuery result) to rows [lo, hi) of the view
// into out[:hi-lo].
func (v *QuantizedView) OrderingRange(qc []int8, lo, hi int, out []float64) {
	if lo < 0 || hi > v.n || lo > hi {
		panic("metric: OrderingRange rows out of range")
	}
	if len(qc) != v.stride {
		panic("metric: OrderingRange query not encoded by this view")
	}
	var acc [quantAccBlock]int32
	single := len(v.chunkW) == 1
	for b := lo; b < hi; b += quantAccBlock {
		be := b + quantAccBlock
		if be > hi {
			be = hi
		}
		rows := be - b
		o := out[b-lo : be-lo]
		if single {
			quantScanRows(qc, v.codes[b*v.stride:be*v.stride], v.stride, rows, acc[:rows])
			s2 := v.sqs[0]
			for i := 0; i < rows; i++ {
				o[i] = float64(acc[i]) * s2
			}
			continue
		}
		for i := range o {
			o[i] = 0
		}
		for c := range v.chunkW {
			co, cp := v.chunkO[c], v.chunkP[c]
			qcc := qc[co : co+cp]
			s2 := v.sqs[c]
			for i := 0; i < rows; i++ {
				row := v.codes[(b+i)*v.stride+co:]
				o[i] += float64(quantSqDiff(qcc, row[:cp])) * s2
			}
		}
	}
}

// quantScanRows computes, for each of rows code rows of width stride
// (multiple of quantAlign) starting at codes[0], the int32 sum of squared
// code differences against qc[:stride]. Results are exact — integer
// accumulation cannot round — so the AVX2 and pure-Go paths agree
// bitwise.
func quantScanRows(qc, codes []int8, stride, rows int, out []int32) {
	if len(qc) < stride || len(codes) < rows*stride || len(out) < rows {
		panic("metric: quantScanRows buffer underflow")
	}
	if useQuantAsm {
		quantScanRowsAsm(qc, codes, stride, rows, out)
		return
	}
	quantScanRowsGo(qc, codes, stride, rows, out)
}

// quantSqDiff is the single-row form of quantScanRows.
func quantSqDiff(qc, row []int8) int32 {
	var out [1]int32
	quantScanRows(qc, row, len(qc), 1, out[:])
	return out[0]
}

// quantScanRowsGo is the portable reference loop: four int32 lanes of
// (int8 − int8)² accumulation. Each lane sums at most chunkDims/4 terms
// of ≤ 254², far inside int32 range.
func quantScanRowsGo(qc, codes []int8, stride, rows int, out []int32) {
	for r := 0; r < rows; r++ {
		row := codes[r*stride : (r+1)*stride]
		q := qc[:len(row)]
		var a0, a1, a2, a3 int32
		j := 0
		for ; j+4 <= len(q); j += 4 {
			d0 := int32(q[j]) - int32(row[j])
			d1 := int32(q[j+1]) - int32(row[j+1])
			d2 := int32(q[j+2]) - int32(row[j+2])
			d3 := int32(q[j+3]) - int32(row[j+3])
			a0 += d0 * d0
			a1 += d1 * d1
			a2 += d2 * d2
			a3 += d3 * d3
		}
		for ; j < len(q); j++ {
			d := int32(q[j]) - int32(row[j])
			a0 += d * d
		}
		out[r] = a0 + a1 + a2 + a3
	}
}
