//go:build amd64

package metric

// useExactAsm gates the AVX2 exact bodies. The asm path performs the
// identical lane operations in the identical order as euclidExactPair
// (see exact_amd64.s), so this is purely a throughput switch.
var useExactAsm = x86HasAVX2()

// exactQuadAsm writes to out[0..3] the exact ordering distances from the
// dim-wide query at q to the four consecutive rows at rows (dim ≥ 1).
// Implemented in exact_amd64.s.
//
//go:noescape
func exactQuadAsm(q, rows *float32, dim int, out *float64)

// exactQuad2Asm is exactQuadAsm for two queries sharing the row loads.
// Implemented in exact_amd64.s.
//
//go:noescape
func exactQuad2Asm(q0, q1, rows *float32, dim int, out0, out1 *float64)
