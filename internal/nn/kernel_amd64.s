//go:build amd64 && !purego

#include "textflag.h"

// The AVX2 body of the kernel family declared in kernel_amd64.go, and the
// AVX-512 body of matvec. Rules that keep them bit-identical to the Go
// reference body in kernel.go:
//
//   - a vector lane is one output element (axpy, matvec, the elementwise
//     routines) or one of the four j mod 4 accumulators (dotAxpy), so each
//     element sees the scalar sequence of operations, in the scalar order;
//   - an FMA only where the scalar code has one: never in the multiply-add
//     routines, where every product is rounded before it is added, and
//     exactly math.Exp's own in the exp of the activations;
//   - unaligned loads and stores throughout: operands are arbitrary
//     sub-slices of float64 buffers.
//
// Every routine ends in VZEROUPPER. The Go wrappers guarantee a non-empty
// first operand and that every other slice is at least as long (matvec: a
// non-empty x, and len(x)*len(dst) weights).

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

// The two matvec bodies: dst[j] += sum over k ascending of x[k]*w[k*n+j],
// n = len(dst), skipping k where x[k] is ±0. A strip of dst stays in
// registers for the whole k loop and is stored once: 32 elements wide while
// 32 remain, then 8 wide, then one element at a time. Per element that is the
// reference body's sequence: dst[j], plus each rounded product, k ascending.
// Register use, both bodies: DI dst, CX n, SI x, R8 len(x), R9 w, R11 the
// byte stride n*8 of a weight row, AX the strip's first j, DX its end, BX k,
// R10 &w[k*n+AX], R12 the zero test.

// MATVEC_KSTART starts a strip's k loop: R10 = &w[AX], BX = 0.
#define MATVEC_KSTART \
	LEAQ (R9)(AX*8), R10; \
	XORQ BX, BX

// MATVEC_SKIPZERO jumps to skip when x[k] is ±0: every bit but the sign clear.
#define MATVEC_SKIPZERO(skip) \
	MOVQ (SI)(BX*8), R12; \
	SHLQ $1, R12; \
	JEQ  skip

// MATVEC_NEXTK advances to the next weight row.
#define MATVEC_NEXTK \
	ADDQ R11, R10; \
	INCQ BX

// MATVEC_TAIL is both bodies' scalar tail, AX to n, one element and a whole
// k loop at a time.
#define MATVEC_TAIL \
matvec_tail1: \
	CMPQ AX, CX; \
	JGE  matvec_done; \
	VMOVSD (DI)(AX*8), X0; \
	MATVEC_KSTART; \
matvec_k1: \
	CMPQ BX, R8; \
	JGE  matvec_store1; \
	MATVEC_SKIPZERO(matvec_skip1); \
	VMOVSD (SI)(BX*8), X15; \
	VMULSD (R10), X15, X8; \
	VADDSD X8, X0, X0; \
matvec_skip1: \
	MATVEC_NEXTK; \
	JMP  matvec_k1; \
matvec_store1: \
	VMOVSD X0, (DI)(AX*8); \
	INCQ AX; \
	JMP  matvec_tail1; \
matvec_done: \
	VZEROUPPER; \
	RET

// func matvecAVX2(dst, x, w []float64)
// The 32-wide strip is Y0..Y7, the 8-wide one Y0, Y1; Y15 is x[k].
TEXT ·matvecAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), R8
	MOVQ w_base+48(FP), R9
	MOVQ CX, R11
	SHLQ $3, R11
	XORQ AX, AX

matvec_strip32:
	LEAQ 32(AX), DX
	CMPQ DX, CX
	JGT  matvec_strip8
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	VMOVUPD 64(DI)(AX*8), Y2
	VMOVUPD 96(DI)(AX*8), Y3
	VMOVUPD 128(DI)(AX*8), Y4
	VMOVUPD 160(DI)(AX*8), Y5
	VMOVUPD 192(DI)(AX*8), Y6
	VMOVUPD 224(DI)(AX*8), Y7
	MATVEC_KSTART

matvec_k32:
	CMPQ BX, R8
	JGE  matvec_store32
	MATVEC_SKIPZERO(matvec_skip32)
	VBROADCASTSD (SI)(BX*8), Y15
	VMULPD (R10), Y15, Y8
	VMULPD 32(R10), Y15, Y9
	VMULPD 64(R10), Y15, Y10
	VMULPD 96(R10), Y15, Y11
	VADDPD Y8, Y0, Y0
	VADDPD Y9, Y1, Y1
	VADDPD Y10, Y2, Y2
	VADDPD Y11, Y3, Y3
	VMULPD 128(R10), Y15, Y8
	VMULPD 160(R10), Y15, Y9
	VMULPD 192(R10), Y15, Y10
	VMULPD 224(R10), Y15, Y11
	VADDPD Y8, Y4, Y4
	VADDPD Y9, Y5, Y5
	VADDPD Y10, Y6, Y6
	VADDPD Y11, Y7, Y7

matvec_skip32:
	MATVEC_NEXTK
	JMP matvec_k32

matvec_store32:
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	VMOVUPD Y3, 96(DI)(AX*8)
	VMOVUPD Y4, 128(DI)(AX*8)
	VMOVUPD Y5, 160(DI)(AX*8)
	VMOVUPD Y6, 192(DI)(AX*8)
	VMOVUPD Y7, 224(DI)(AX*8)
	MOVQ DX, AX
	JMP  matvec_strip32

matvec_strip8:
	LEAQ 8(AX), DX
	CMPQ DX, CX
	JGT  matvec_tail1
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	MATVEC_KSTART

matvec_k8:
	CMPQ BX, R8
	JGE  matvec_store8
	MATVEC_SKIPZERO(matvec_skip8)
	VBROADCASTSD (SI)(BX*8), Y15
	VMULPD (R10), Y15, Y8
	VMULPD 32(R10), Y15, Y9
	VADDPD Y8, Y0, Y0
	VADDPD Y9, Y1, Y1

matvec_skip8:
	MATVEC_NEXTK
	JMP matvec_k8

matvec_store8:
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	MOVQ DX, AX
	JMP  matvec_strip8

	MATVEC_TAIL

// func matvecAVX512(dst, x, w []float64)
// The 32-wide strip is Z0..Z3, the 8-wide one Z0; Z15 is x[k].
TEXT ·matvecAVX512(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), R8
	MOVQ w_base+48(FP), R9
	MOVQ CX, R11
	SHLQ $3, R11
	XORQ AX, AX

matvec_strip32:
	LEAQ 32(AX), DX
	CMPQ DX, CX
	JGT  matvec_strip8
	VMOVUPD (DI)(AX*8), Z0
	VMOVUPD 64(DI)(AX*8), Z1
	VMOVUPD 128(DI)(AX*8), Z2
	VMOVUPD 192(DI)(AX*8), Z3
	MATVEC_KSTART

matvec_k32:
	CMPQ BX, R8
	JGE  matvec_store32
	MATVEC_SKIPZERO(matvec_skip32)
	VBROADCASTSD (SI)(BX*8), Z15
	VMULPD (R10), Z15, Z8
	VMULPD 64(R10), Z15, Z9
	VMULPD 128(R10), Z15, Z10
	VMULPD 192(R10), Z15, Z11
	VADDPD Z8, Z0, Z0
	VADDPD Z9, Z1, Z1
	VADDPD Z10, Z2, Z2
	VADDPD Z11, Z3, Z3

matvec_skip32:
	MATVEC_NEXTK
	JMP matvec_k32

matvec_store32:
	VMOVUPD Z0, (DI)(AX*8)
	VMOVUPD Z1, 64(DI)(AX*8)
	VMOVUPD Z2, 128(DI)(AX*8)
	VMOVUPD Z3, 192(DI)(AX*8)
	MOVQ DX, AX
	JMP  matvec_strip32

matvec_strip8:
	LEAQ 8(AX), DX
	CMPQ DX, CX
	JGT  matvec_tail1
	VMOVUPD (DI)(AX*8), Z0
	MATVEC_KSTART

matvec_k8:
	CMPQ BX, R8
	JGE  matvec_store8
	MATVEC_SKIPZERO(matvec_skip8)
	VBROADCASTSD (SI)(BX*8), Z15
	VMULPD (R10), Z15, Z8
	VADDPD Z8, Z0, Z0

matvec_skip8:
	MATVEC_NEXTK
	JMP matvec_k8

matvec_store8:
	VMOVUPD Z0, (DI)(AX*8)
	MOVQ DX, AX
	JMP  matvec_strip8

	MATVEC_TAIL

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

// The elementwise bodies. Each takes whole groups of four from the start of
// its first operand and leaves the len mod 4 tail to its Go driver in
// kernel_amd64.go. Their constants are replicated four wide so that every
// instruction can take one as a memory operand.

#define CONST4(off, bits) DATA elemconst<>+(off)(SB)/8, $bits; DATA elemconst<>+(off+8)(SB)/8, $bits; DATA elemconst<>+(off+16)(SB)/8, $bits; DATA elemconst<>+(off+24)(SB)/8, $bits

// math/exp_amd64.s: LOG2E, LN2U, LN2L, the 1/16 reduction and the Taylor
// coefficients 1/8! .. 1/3!, 1/2, 1, and the 2 of the squaring steps.
CONST4(0, 0x3ff71547652b82fe)
CONST4(32, 0x3fe62e42fefa3000)
CONST4(64, 0x3d53de6af278ece6)
CONST4(96, 0x3fb0000000000000)
CONST4(128, 0x3efa01a01a01a01a)
CONST4(160, 0x3f2a01a01a01a01a)
CONST4(192, 0x3f56c16c16c16c17)
CONST4(224, 0x3f81111111111111)
CONST4(256, 0x3fa5555555555555)
CONST4(288, 0x3fc5555555555555)
CONST4(320, 0x3fe0000000000000)
CONST4(352, 0x3ff0000000000000)
CONST4(384, 0x4000000000000000)
// The lanes the vector exp takes: [-708, 709]; the exponent bias 1023.
CONST4(416, 0xc086200000000000)
CONST4(448, 0x4086280000000000)
CONST4(480, 0x00000000000003ff)
// Sign bit and its complement.
CONST4(512, 0x8000000000000000)
CONST4(544, 0x7fffffffffffffff)
// math/tanh.go: the branch points 0.625 and MAXLOG/2, tanhP[0..2], tanhQ[0..2].
CONST4(576, 0x3fe4000000000000)
CONST4(608, 0x404601e678fc457b)
CONST4(640, 0xbfeedc5baafd6f4b)
CONST4(672, 0xc058d26a0e26682d)
CONST4(704, 0xc0993ac030580563)
CONST4(736, 0x405c33f28a581b86)
CONST4(768, 0x40a176fa0e5535fa)
CONST4(800, 0x40b2ec102442040c)
GLOBL elemconst<>(SB), RODATA|NOPTR, $832

#define LOG2E elemconst<>+0(SB)
#define LN2U elemconst<>+32(SB)
#define LN2L elemconst<>+64(SB)
#define SIXTEENTH elemconst<>+96(SB)
#define EXPC8 elemconst<>+128(SB)
#define EXPC7 elemconst<>+160(SB)
#define EXPC6 elemconst<>+192(SB)
#define EXPC5 elemconst<>+224(SB)
#define EXPC4 elemconst<>+256(SB)
#define EXPC3 elemconst<>+288(SB)
#define HALF elemconst<>+320(SB)
#define ONE elemconst<>+352(SB)
#define TWO elemconst<>+384(SB)
#define EXPLO elemconst<>+416(SB)
#define EXPHI elemconst<>+448(SB)
#define EXPBIAS elemconst<>+480(SB)
#define SIGN elemconst<>+512(SB)
#define ABS elemconst<>+544(SB)
#define TANHMID elemconst<>+576(SB)
#define TANHBIG elemconst<>+608(SB)
#define TANHP0 elemconst<>+640(SB)
#define TANHP1 elemconst<>+672(SB)
#define TANHP2 elemconst<>+704(SB)
#define TANHQ0 elemconst<>+736(SB)
#define TANHQ1 elemconst<>+768(SB)
#define TANHQ2 elemconst<>+800(SB)

// INRANGE sets BX to the 4-bit mask of x's lanes inside [-708, 709] (a NaN
// lane is outside); clobbers t and u.
#define INRANGE(x, t, u) VCMPPD $0x1D, EXPLO, x, t; VCMPPD $0x12, EXPHI, x, u; VANDPD u, t, t; VMOVMSKPD t, BX

// EXP replaces each lane of x, which must lie in [-708, 709], by math.Exp of
// it, step for step the avxfma path of math/exp_amd64.s:
//   k = round(x*LOG2E); x = fma(-k, LN2U, x); x = fma(-k, LN2L, x); x /= 16
//   p = Taylor polynomial in x by fmas; x *= p
//   three times: x *= x+2; then x = fma(x+2, x, 1)
//   x *= 2^k (k+1023 lies in [2, 2046] on these lanes)
// kx and ky name one register as X and Y; t and p are scratch.
#define EXP(x, t, kx, ky, p) \
	VMULPD LOG2E, x, t; \
	VCVTPD2DQY t, kx; \
	VCVTDQ2PD kx, t; \
	VFNMADD231PD LN2U, t, x; \
	VFNMADD231PD LN2L, t, x; \
	VMULPD SIXTEENTH, x, x; \
	VMOVUPD EXPC8, p; \
	VFMADD213PD EXPC7, x, p; \
	VFMADD213PD EXPC6, x, p; \
	VFMADD213PD EXPC5, x, p; \
	VFMADD213PD EXPC4, x, p; \
	VFMADD213PD EXPC3, x, p; \
	VFMADD213PD HALF, x, p; \
	VFMADD213PD ONE, x, p; \
	VMULPD p, x, x; \
	VADDPD TWO, x, p; \
	VMULPD p, x, x; \
	VADDPD TWO, x, p; \
	VMULPD p, x, x; \
	VADDPD TWO, x, p; \
	VMULPD p, x, x; \
	VADDPD TWO, x, p; \
	VFMADD213PD ONE, p, x; \
	VPMOVSXDQ kx, ky; \
	VPADDQ EXPBIAS, ky, ky; \
	VPSLLQ $52, ky, ky; \
	VMULPD ky, x, x

// func sigmoidAVX2(dst, x []float64) int
// dst[j] = 1/(1+exp(-x[j])) over whole groups of four; stops at the first
// group with a lane whose -x the vector exp does not take, and returns the
// index it stopped at (len &^ 3 when it took them all).
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	ANDQ $~3, CX
	XORQ AX, AX
	VMOVUPD ONE, Y8

sigmoid_loop:
	CMPQ AX, CX
	JGE  sigmoid_done
	VMOVUPD (SI)(AX*8), Y0
	VXORPD SIGN, Y0, Y0
	INRANGE(Y0, Y1, Y2)
	CMPQ BX, $15
	JNE  sigmoid_done
	EXP(Y0, Y1, X2, Y2, Y3)
	VADDPD Y8, Y0, Y0
	VDIVPD Y0, Y8, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  sigmoid_loop

sigmoid_done:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func expShiftAVX2(dst, x []float64, m float64) int
// dst[j] = exp(x[j]-m) over whole groups of four; stops like sigmoidAVX2.
TEXT ·expShiftAVX2(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	VBROADCASTSD m+48(FP), Y8
	ANDQ $~3, CX
	XORQ AX, AX

expshift_loop:
	CMPQ AX, CX
	JGE  expshift_done
	VMOVUPD (SI)(AX*8), Y0
	VSUBPD Y8, Y0, Y0
	INRANGE(Y0, Y1, Y2)
	CMPQ BX, $15
	JNE  expshift_done
	EXP(Y0, Y1, X2, Y2, Y3)
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  expshift_loop

expshift_done:
	MOVQ AX, ret+56(FP)
	VZEROUPPER
	RET

// func tanhAVX2(dst, x []float64)
// dst[j] = tanh(x[j]) over whole groups of four. Each lane computes the three
// branches of math.tanh (z = |x|):
//   z > MAXLOG/2:  ±1
//   z >= 0.625:    ±(1 - 2/(exp(2z)+1))
//   otherwise:     x + x*s*((P0*s+P1)*s+P2)/(((s+Q0)*s+Q1)*s+Q2), s = x*x
// and blends them in that priority, then puts x back where x == ±0. The exp of
// a lane outside the middle branch is discarded, so it needs no range check.
TEXT ·tanhAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	ANDQ $~3, CX
	XORQ AX, AX
	VMOVUPD ONE, Y8
	VMOVUPD TWO, Y9
	VXORPD Y10, Y10, Y10

tanh_loop:
	CMPQ AX, CX
	JGE  tanh_done
	VMOVUPD (SI)(AX*8), Y4
	VANDPD ABS, Y4, Y5
	VANDPD SIGN, Y4, Y6

	// Middle branch into Y0, signed like x.
	VADDPD Y5, Y5, Y0
	EXP(Y0, Y1, X2, Y2, Y3)
	VADDPD Y8, Y0, Y0
	VDIVPD Y0, Y9, Y0
	VSUBPD Y0, Y8, Y0
	VORPD Y6, Y0, Y0

	// Small branch into Y1: Y2 = P(s), Y3 = Q(s).
	VMULPD Y4, Y4, Y1
	VMULPD TANHP0, Y1, Y2
	VADDPD TANHP1, Y2, Y2
	VMULPD Y1, Y2, Y2
	VADDPD TANHP2, Y2, Y2
	VADDPD TANHQ0, Y1, Y3
	VMULPD Y1, Y3, Y3
	VADDPD TANHQ1, Y3, Y3
	VMULPD Y1, Y3, Y3
	VADDPD TANHQ2, Y3, Y3
	VMULPD Y1, Y4, Y1
	VMULPD Y2, Y1, Y1
	VDIVPD Y3, Y1, Y1
	VADDPD Y1, Y4, Y1

	VCMPPD $0x1D, TANHMID, Y5, Y2
	VBLENDVPD Y2, Y0, Y1, Y1
	VCMPPD $0x1E, TANHBIG, Y5, Y2
	VORPD Y8, Y6, Y3
	VBLENDVPD Y2, Y3, Y1, Y1
	VCMPPD $0x00, Y10, Y4, Y2
	VBLENDVPD Y2, Y4, Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	JMP  tanh_loop

tanh_done:
	VZEROUPPER
	RET

// func adamAVX2(w, dw, m, v []float64, c adamCoef)
// Adam's update over whole groups of four, in adamGo's operation order:
//   d = dw*scale; m = b1*m + c1*d; v = b2*v + (c2*d)*d
//   w -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps); dw = 0
TEXT ·adamAVX2(SB), NOSPLIT, $0-168
	MOVQ w_base+0(FP), DI
	MOVQ w_len+8(FP), CX
	MOVQ dw_base+24(FP), SI
	MOVQ m_base+48(FP), R8
	MOVQ v_base+72(FP), R9
	VBROADCASTSD c_scale+96(FP), Y7
	VBROADCASTSD c_b1+104(FP), Y8
	VBROADCASTSD c_c1+112(FP), Y9
	VBROADCASTSD c_b2+120(FP), Y10
	VBROADCASTSD c_c2+128(FP), Y11
	VBROADCASTSD c_bc1+136(FP), Y12
	VBROADCASTSD c_bc2+144(FP), Y13
	VBROADCASTSD c_lr+152(FP), Y14
	VBROADCASTSD c_eps+160(FP), Y15
	VXORPD Y6, Y6, Y6
	ANDQ $~3, CX
	XORQ AX, AX

adam_loop:
	CMPQ AX, CX
	JGE  adam_done
	VMULPD (SI)(AX*8), Y7, Y0
	VMULPD (R8)(AX*8), Y8, Y1
	VMULPD Y0, Y9, Y2
	VADDPD Y2, Y1, Y1
	VMULPD Y0, Y11, Y3
	VMULPD Y0, Y3, Y3
	VMULPD (R9)(AX*8), Y10, Y4
	VADDPD Y3, Y4, Y4
	VMOVUPD Y1, (R8)(AX*8)
	VMOVUPD Y4, (R9)(AX*8)
	VDIVPD Y12, Y1, Y1
	VDIVPD Y13, Y4, Y4
	VSQRTPD Y4, Y4
	VADDPD Y15, Y4, Y4
	VMULPD Y1, Y14, Y1
	VDIVPD Y4, Y1, Y1
	VMOVUPD (DI)(AX*8), Y5
	VSUBPD Y1, Y5, Y5
	VMOVUPD Y5, (DI)(AX*8)
	VMOVUPD Y6, (SI)(AX*8)
	ADDQ $4, AX
	JMP  adam_loop

adam_done:
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
