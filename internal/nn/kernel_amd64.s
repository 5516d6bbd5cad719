//go:build amd64 && !purego

#include "textflag.h"

// The AVX2 body of the kernel family declared in kernel_amd64.go. Rules that
// keep it bit-identical to the Go reference body in kernel.go:
//
//   - VMULPD/VADDPD (and their scalar forms for tails) only, never an FMA:
//     every product is rounded before it is added;
//   - a vector lane is one output element (axpy, axpy4) or one of the four
//     j mod 4 accumulators (dotAxpy), so each element sees the scalar
//     sequence of operations, in the scalar order;
//   - unaligned loads and stores throughout: operands are arbitrary
//     sub-slices of float64 buffers.
//
// Every routine ends in VZEROUPPER. The Go wrappers guarantee a non-empty
// first operand and that every other slice is at least as long.

// func axpyAVX2(dst, x []float64, a float64)
// dst[j] += a*x[j]
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	VBROADCASTSD a+48(FP), Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $~7, DX

axpy_loop8:
	CMPQ AX, DX
	JGE  axpy_tail4
	VMULPD (SI)(AX*8), Y0, Y1
	VMULPD 32(SI)(AX*8), Y0, Y2
	VADDPD (DI)(AX*8), Y1, Y1
	VADDPD 32(DI)(AX*8), Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  axpy_loop8

axpy_tail4:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JGT  axpy_tail1
	VMULPD (SI)(AX*8), Y0, Y1
	VADDPD (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	MOVQ DX, AX

axpy_tail1:
	CMPQ AX, CX
	JGE  axpy_done
	VMULSD (SI)(AX*8), X0, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	JMP  axpy_tail1

axpy_done:
	VZEROUPPER
	RET

// func axpy4AVX2(dst, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64)
// dst[j] = (((dst[j] + a0*x0[j]) + a1*x1[j]) + a2*x2[j]) + a3*x3[j]
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-152
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x0_base+24(FP), R8
	MOVQ x1_base+48(FP), R9
	MOVQ x2_base+72(FP), R10
	MOVQ x3_base+96(FP), R11
	VBROADCASTSD a0+120(FP), Y0
	VBROADCASTSD a1+128(FP), Y1
	VBROADCASTSD a2+136(FP), Y2
	VBROADCASTSD a3+144(FP), Y3
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $~7, DX

axpy4_loop8:
	CMPQ AX, DX
	JGE  axpy4_tail4
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y5
	VMULPD (R8)(AX*8), Y0, Y6
	VMULPD 32(R8)(AX*8), Y0, Y7
	VMULPD (R9)(AX*8), Y1, Y8
	VMULPD 32(R9)(AX*8), Y1, Y9
	VMULPD (R10)(AX*8), Y2, Y10
	VMULPD 32(R10)(AX*8), Y2, Y11
	VMULPD (R11)(AX*8), Y3, Y12
	VMULPD 32(R11)(AX*8), Y3, Y13
	VADDPD Y6, Y4, Y4
	VADDPD Y7, Y5, Y5
	VADDPD Y8, Y4, Y4
	VADDPD Y9, Y5, Y5
	VADDPD Y10, Y4, Y4
	VADDPD Y11, Y5, Y5
	VADDPD Y12, Y4, Y4
	VADDPD Y13, Y5, Y5
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  axpy4_loop8

axpy4_tail4:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JGT  axpy4_tail1
	VMOVUPD (DI)(AX*8), Y4
	VMULPD (R8)(AX*8), Y0, Y6
	VMULPD (R9)(AX*8), Y1, Y8
	VMULPD (R10)(AX*8), Y2, Y10
	VMULPD (R11)(AX*8), Y3, Y12
	VADDPD Y6, Y4, Y4
	VADDPD Y8, Y4, Y4
	VADDPD Y10, Y4, Y4
	VADDPD Y12, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	MOVQ DX, AX

axpy4_tail1:
	CMPQ AX, CX
	JGE  axpy4_done
	VMOVSD (DI)(AX*8), X4
	VMULSD (R8)(AX*8), X0, X6
	VMULSD (R9)(AX*8), X1, X8
	VMULSD (R10)(AX*8), X2, X10
	VMULSD (R11)(AX*8), X3, X12
	VADDSD X6, X4, X4
	VADDSD X8, X4, X4
	VADDSD X10, X4, X4
	VADDSD X12, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ AX
	JMP  axpy4_tail1

axpy4_done:
	VZEROUPPER
	RET

// func dotAxpyAVX2(d, w, wd []float64, a float64) float64
// wd[j] += d[j]*a; returns (l0+l1)+(l2+l3), lane l summing d[j]*w[j] over
// j = l mod 4 ascending, lane 0 also the tail.
TEXT ·dotAxpyAVX2(SB), NOSPLIT, $0-88
	MOVQ d_base+0(FP), SI
	MOVQ d_len+8(FP), CX
	MOVQ w_base+24(FP), R8
	MOVQ wd_base+48(FP), DI
	VBROADCASTSD a+72(FP), Y0
	VXORPD Y1, Y1, Y1
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $~3, DX

dotaxpy_loop4:
	CMPQ AX, DX
	JGE  dotaxpy_lanes
	VMOVUPD (SI)(AX*8), Y2
	VMULPD (R8)(AX*8), Y2, Y3
	VMULPD Y0, Y2, Y4
	VADDPD Y3, Y1, Y1
	VADDPD (DI)(AX*8), Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ $4, AX
	JMP  dotaxpy_loop4

dotaxpy_lanes:
	VEXTRACTF128 $1, Y1, X5

dotaxpy_tail1:
	CMPQ AX, CX
	JGE  dotaxpy_done
	VMOVSD (SI)(AX*8), X2
	VMULSD (R8)(AX*8), X2, X3
	VMULSD X0, X2, X4
	VADDSD X3, X1, X1
	VADDSD (DI)(AX*8), X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ AX
	JMP  dotaxpy_tail1

dotaxpy_done:
	VUNPCKHPD X1, X1, X6
	VADDSD X6, X1, X1
	VUNPCKHPD X5, X5, X7
	VADDSD X7, X5, X5
	VADDSD X5, X1, X1
	VMOVSD X1, ret+80(FP)
	VZEROUPPER
	RET

// func dotAxpy2AVX2(d0, d1, w, wd []float64, a0, a1 float64) (s0, s1 float64)
// dotAxpy for two rows sharing w and wd:
// wd[j] = (wd[j] + d0[j]*a0) + d1[j]*a1, one lane set per row.
TEXT ·dotAxpy2AVX2(SB), NOSPLIT, $0-128
	MOVQ d0_base+0(FP), SI
	MOVQ d0_len+8(FP), CX
	MOVQ d1_base+24(FP), R9
	MOVQ w_base+48(FP), R8
	MOVQ wd_base+72(FP), DI
	VBROADCASTSD a0+96(FP), Y0
	VBROADCASTSD a1+104(FP), Y8
	VXORPD Y1, Y1, Y1
	VXORPD Y9, Y9, Y9
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $~3, DX

dotaxpy2_loop4:
	CMPQ AX, DX
	JGE  dotaxpy2_lanes
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD (R9)(AX*8), Y10
	VMOVUPD (R8)(AX*8), Y5
	VMULPD Y5, Y2, Y3
	VMULPD Y5, Y10, Y11
	VMULPD Y0, Y2, Y4
	VMULPD Y8, Y10, Y12
	VADDPD Y3, Y1, Y1
	VADDPD Y11, Y9, Y9
	VADDPD (DI)(AX*8), Y4, Y4
	VADDPD Y12, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ $4, AX
	JMP  dotaxpy2_loop4

dotaxpy2_lanes:
	VEXTRACTF128 $1, Y1, X6
	VEXTRACTF128 $1, Y9, X14

dotaxpy2_tail1:
	CMPQ AX, CX
	JGE  dotaxpy2_done
	VMOVSD (SI)(AX*8), X2
	VMOVSD (R9)(AX*8), X10
	VMOVSD (R8)(AX*8), X5
	VMULSD X5, X2, X3
	VMULSD X5, X10, X11
	VMULSD X0, X2, X4
	VMULSD X8, X10, X12
	VADDSD X3, X1, X1
	VADDSD X11, X9, X9
	VADDSD (DI)(AX*8), X4, X4
	VADDSD X12, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ AX
	JMP  dotaxpy2_tail1

dotaxpy2_done:
	VUNPCKHPD X1, X1, X7
	VADDSD X7, X1, X1
	VUNPCKHPD X6, X6, X7
	VADDSD X7, X6, X6
	VADDSD X6, X1, X1
	VMOVSD X1, s0+112(FP)
	VUNPCKHPD X9, X9, X7
	VADDSD X7, X9, X9
	VUNPCKHPD X14, X14, X7
	VADDSD X7, X14, X14
	VADDSD X14, X9, X9
	VMOVSD X9, s1+120(FP)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
