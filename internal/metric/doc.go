// Package metric defines the distance abstractions used by the RBC, the
// brute-force primitive and the cover tree.
//
// The paper's algorithms work over arbitrary metric spaces, so the central
// type is the generic Metric[P] interface. Dense float32 vectors get two
// fast paths:
//
//   - OrderingBatch: ordering distances from one query to a contiguous
//     block of points (the matrix-vector shape), read through
//     Kernel.Ordering;
//   - Kernel.Tile: distances from a block of queries to a block of points
//     into a row-major tile (the matrix-matrix shape of BF(Q,X)), resolved
//     per metric through the Kernel type.
//
// The tile kernels work in *ordering distance* space — a strictly monotone
// surrogate of the distance (squared for l2) that keeps the inner loop
// FMA-shaped — with conversion at the API boundary via the Orderer
// interface.
//
// # Kernel grades
//
// Two kernel grades exist:
//
//   - exact: squared differences accumulated in four float64 lanes over
//     the float32 rows in place — an AVX2 four-lane body on amd64 (four
//     rows per pass; tiles also share each row between two queries), the
//     scalar lane loop elsewhere, bit-identical to each other. The
//     reference grade, and the only one any answer, baseline or probe
//     runs on; Euclidean.Distance is its sqrt. See exact.go, and
//     exact_amd64.s for the identity argument.
//   - Gram-fast: float64 Gram decomposition ‖q‖²+‖p‖²−2q·p over cached
//     norms; drifts from exact in the trailing ulps and is slower at every
//     dimension. It remains only for bruteforce.SearchKFast, which the
//     benchmark module's layer replay times.
//
// Beside the kernels, QuantizedView holds int8 codes with an integer MAC
// scan (AVX2 on amd64): the candidate pass of the two-pass brute-force
// scan, which moves a quarter of the bytes and rescores on the exact
// grade; see quant.go.
//
// See multi.go for the ordering contract and grade dispatch.
//
// # Tile shapes
//
// The tiled consumer loops size their tiles via TileShape, against one
// process-wide per-tile footprint budget: a static default, unless
// SetTileBudget (tests, harnesses) says otherwise. TileBudget reports the
// value and where it came from for bench artifacts. Shape can never change results: both
// grades are tile-shape invariant by construction, and the invariance
// tests sweep a range of budgets. See tilebudget.go.
package metric
