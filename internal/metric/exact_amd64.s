#include "textflag.h"

// AVX2 bodies of the exact Euclidean grade: squared l2 ordering distances
// from one query (exactQuadAsm) or two (exactQuad2Asm) to four consecutive
// point rows, with the bits of the scalar reference euclidExactPair.
//
// Why these are the reference's bits and not an approximation of them.
// The reference keeps four independent float64 accumulators s0..s3,
// accumulator l taking dims ≡ l (mod 4) in index order — which is one YMM
// register of packed doubles. VCVTPS2PD widens float32 to float64 exactly
// (every binary32 is a binary64), and VSUBPD, VMULPD and VADDPD are
// elementwise IEEE binary64 under the same round-to-nearest-even MXCSR
// the compiler's SUBSD/MULSD/ADDSD run under, so lane l performs the
// identical operations on the identical operands in the identical order
// as s_l.
//
// Tail dims (dim mod 4) fold into lane 0 in index order, as in the
// reference: a tail step is a body step whose operands are loaded into
// lane 0 with lanes 1..3 zero, so those lanes add (0−0)² = +0. x + (+0)
// is x for every x but −0, and an accumulator is never −0: it starts at
// +0 and only ever adds squares.
//
// The horizontal sum is ((s0+s1)+s2)+s3 in scalar ADDSDs, the order the
// reference's s0 + s1 + s2 + s3 parses to.
//
// No FMA anywhere: the Go compiler does not fuse float64 multiply-add on
// amd64, and fusing here would skip the product's rounding and change
// bits.
//
// NaN: a NaN result is NaN on both paths, but its sign and payload are
// not pinned — x86 propagates the first source operand's NaN, the default
// NaN of Inf−Inf has the sign bit set where a widened input NaN usually
// does not, and the Go compiler is free to commute the operands of an
// addition, so the two spellings may hand back different NaN encodings.
// Every non-NaN result, ±Inf and ±0 included, is bit-identical.
//
// Register blocking: the widened query is loaded once per pass and shared
// by the four rows; a single accumulator would be bound by VADDPD latency
// (≈ 4 cycles per 4 dims, no faster than the scalar loop), four
// independent ones are bound by issue width. The two-query form shares
// each widened row between two queries as well: 30 vector µops per 8
// pair-steps against 34, and half the row traffic.

// LOAD4 widens the four float32 at R+4·AX into the double lanes of Y.
#define LOAD4(R, Y) \
	VCVTPS2PD (R)(AX*4), Y

// LOAD1 widens the float32 at R+4·AX into lane 0 of Y and zeroes lanes
// 1..3 (a VEX VMOVSS load clears the rest of the register).
#define LOAD1(R, X, Y) \
	VMOVSS (R)(AX*4), X; \
	VCVTPS2PD X, Y

// ACC adds the squared lane differences Q−P onto accumulator A through
// temporary T (T may be P).
#define ACC(Q, P, T, A) \
	VSUBPD P, Q, T; \
	VMULPD T, T, T; \
	VADDPD T, A, A

// HSUM stores ((s0+s1)+s2)+s3 of accumulator Y, whose low half is X, at
// off(dst). Clobbers Y, X5 and X6.
#define HSUM(Y, X, off, dst) \
	VEXTRACTF128 $1, Y, X5; \
	VUNPCKHPD X, X, X6; \
	VADDSD X6, X, X; \
	VADDSD X5, X, X; \
	VUNPCKHPD X5, X5, X5; \
	VADDSD X5, X, X; \
	VMOVSD X, off(dst)

// func exactQuadAsm(q, rows *float32, dim int, out *float64)
// out[t] = exact ordering distance from q to row t of the four
// consecutive dim-wide rows at rows, t = 0..3. dim ≥ 1.
TEXT ·exactQuadAsm(SB), NOSPLIT, $0-32
	MOVQ q+0(FP), SI
	MOVQ rows+8(FP), R9
	MOVQ dim+16(FP), BX
	MOVQ out+24(FP), DI
	LEAQ (R9)(BX*4), R10
	LEAQ (R10)(BX*4), R11
	LEAQ (R11)(BX*4), R12
	MOVQ BX, CX
	ANDQ $-4, CX
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	XORQ AX, AX
	TESTQ CX, CX
	JE   tail

loop:
	LOAD4(SI, Y0)
	LOAD4(R9, Y5)
	ACC(Y0, Y5, Y5, Y1)
	LOAD4(R10, Y6)
	ACC(Y0, Y6, Y6, Y2)
	LOAD4(R11, Y7)
	ACC(Y0, Y7, Y7, Y3)
	LOAD4(R12, Y8)
	ACC(Y0, Y8, Y8, Y4)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  loop

tail:
	CMPQ AX, BX
	JGE  sum
	LOAD1(SI, X0, Y0)
	LOAD1(R9, X5, Y5)
	ACC(Y0, Y5, Y5, Y1)
	LOAD1(R10, X6, Y6)
	ACC(Y0, Y6, Y6, Y2)
	LOAD1(R11, X7, Y7)
	ACC(Y0, Y7, Y7, Y3)
	LOAD1(R12, X8, Y8)
	ACC(Y0, Y8, Y8, Y4)
	INCQ AX
	JMP  tail

sum:
	HSUM(Y1, X1, 0, DI)
	HSUM(Y2, X2, 8, DI)
	HSUM(Y3, X3, 16, DI)
	HSUM(Y4, X4, 24, DI)
	VZEROUPPER
	RET

// func exactQuad2Asm(q0, q1, rows *float32, dim int, out0, out1 *float64)
// exactQuadAsm for two queries sharing the row loads: out0[t] and out1[t]
// are the exact ordering distances from q0 and q1 to row t. dim ≥ 1.
TEXT ·exactQuad2Asm(SB), NOSPLIT, $0-48
	MOVQ q0+0(FP), SI
	MOVQ q1+8(FP), R8
	MOVQ rows+16(FP), R9
	MOVQ dim+24(FP), BX
	MOVQ out0+32(FP), DI
	MOVQ out1+40(FP), DX
	LEAQ (R9)(BX*4), R10
	LEAQ (R10)(BX*4), R11
	LEAQ (R11)(BX*4), R12
	MOVQ BX, CX
	ANDQ $-4, CX
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	VXORPD Y12, Y12, Y12
	XORQ AX, AX
	TESTQ CX, CX
	JE   tail

loop:
	LOAD4(SI, Y0)
	LOAD4(R8, Y15)
	LOAD4(R9, Y5)
	ACC(Y0, Y5, Y6, Y1)
	ACC(Y15, Y5, Y7, Y9)
	LOAD4(R10, Y8)
	ACC(Y0, Y8, Y13, Y2)
	ACC(Y15, Y8, Y14, Y10)
	LOAD4(R11, Y5)
	ACC(Y0, Y5, Y6, Y3)
	ACC(Y15, Y5, Y7, Y11)
	LOAD4(R12, Y8)
	ACC(Y0, Y8, Y13, Y4)
	ACC(Y15, Y8, Y14, Y12)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  loop

tail:
	CMPQ AX, BX
	JGE  sum
	LOAD1(SI, X0, Y0)
	LOAD1(R8, X15, Y15)
	LOAD1(R9, X5, Y5)
	ACC(Y0, Y5, Y6, Y1)
	ACC(Y15, Y5, Y7, Y9)
	LOAD1(R10, X8, Y8)
	ACC(Y0, Y8, Y13, Y2)
	ACC(Y15, Y8, Y14, Y10)
	LOAD1(R11, X5, Y5)
	ACC(Y0, Y5, Y6, Y3)
	ACC(Y15, Y5, Y7, Y11)
	LOAD1(R12, X8, Y8)
	ACC(Y0, Y8, Y13, Y4)
	ACC(Y15, Y8, Y14, Y12)
	INCQ AX
	JMP  tail

sum:
	HSUM(Y1, X1, 0, DI)
	HSUM(Y2, X2, 8, DI)
	HSUM(Y3, X3, 16, DI)
	HSUM(Y4, X4, 24, DI)
	HSUM(Y9, X9, 0, DX)
	HSUM(Y10, X10, 8, DX)
	HSUM(Y11, X11, 16, DX)
	HSUM(Y12, X12, 24, DX)
	VZEROUPPER
	RET
