//go:build !amd64

package metric

// Non-amd64 builds always take the scalar loop.
const useExactAsm = false

// The asm bodies are never called when useExactAsm is false; these stubs
// keep the common dispatch in exact.go compiling.
func exactQuadAsm(q, rows *float32, dim int, out *float64) {
	panic("metric: exactQuadAsm without asm support")
}

func exactQuad2Asm(q0, q1, rows *float32, dim int, out0, out1 *float64) {
	panic("metric: exactQuad2Asm without asm support")
}
