//go:build amd64 && !purego

#include "textflag.h"

// The AVX2 body of the kernel family declared in kernel_amd64.go, and the
// AVX-512 bodies of matvec, gradX and gradW. Rules that keep them
// bit-identical to the Go reference body in kernel.go:
//
//   - a vector lane is one output element (matvec, gradW, the elementwise
//     routines) or one of the four j mod 4 accumulators of one row and one k
//     (gradX), so each element sees the scalar sequence of operations, in
//     the scalar order: matvec sums k ascending and skips a ±0 x[k], gradW
//     sums batch rows ascending and skips nothing, gradX sums each lane j
//     ascending;
//   - an FMA only where the scalar code has one: never in the multiply-add
//     routines, where every product is rounded before it is added, and
//     exactly math.Exp's own in the exp of the activations;
//   - unaligned loads and stores throughout: operands are arbitrary
//     sub-slices of float64 buffers.
//
// Every routine ends in VZEROUPPER. The Go wrappers guarantee a non-empty
// first operand and that every other slice is at least as long (matvec: a
// non-empty x, and len(x)*len(dst) weights; gradX: len(ad0)*len(d0) weights,
// and len(d0) may be 0; gradW: rows, kn and n all positive, kn <= in, and
// kn*n, (rows-1)*in+kn and rows*n elements in wd, a and d).

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

// The strips matvec and gradW share: load a strip of the output at AX, add
// Y15 (Z15) times the strip's elements at R10 into it, store it back. 32 wide
// the strip is Y0..Y7 (Z0..Z3), 8 wide Y0, Y1 (Z0); Y8..Y11 (Z8..Z11) hold
// the products.
#define LOAD32Y \
	VMOVUPD (DI)(AX*8), Y0; \
	VMOVUPD 32(DI)(AX*8), Y1; \
	VMOVUPD 64(DI)(AX*8), Y2; \
	VMOVUPD 96(DI)(AX*8), Y3; \
	VMOVUPD 128(DI)(AX*8), Y4; \
	VMOVUPD 160(DI)(AX*8), Y5; \
	VMOVUPD 192(DI)(AX*8), Y6; \
	VMOVUPD 224(DI)(AX*8), Y7

#define MADD32Y \
	VMULPD (R10), Y15, Y8; \
	VMULPD 32(R10), Y15, Y9; \
	VMULPD 64(R10), Y15, Y10; \
	VMULPD 96(R10), Y15, Y11; \
	VADDPD Y8, Y0, Y0; \
	VADDPD Y9, Y1, Y1; \
	VADDPD Y10, Y2, Y2; \
	VADDPD Y11, Y3, Y3; \
	VMULPD 128(R10), Y15, Y8; \
	VMULPD 160(R10), Y15, Y9; \
	VMULPD 192(R10), Y15, Y10; \
	VMULPD 224(R10), Y15, Y11; \
	VADDPD Y8, Y4, Y4; \
	VADDPD Y9, Y5, Y5; \
	VADDPD Y10, Y6, Y6; \
	VADDPD Y11, Y7, Y7

#define STORE32Y \
	VMOVUPD Y0, (DI)(AX*8); \
	VMOVUPD Y1, 32(DI)(AX*8); \
	VMOVUPD Y2, 64(DI)(AX*8); \
	VMOVUPD Y3, 96(DI)(AX*8); \
	VMOVUPD Y4, 128(DI)(AX*8); \
	VMOVUPD Y5, 160(DI)(AX*8); \
	VMOVUPD Y6, 192(DI)(AX*8); \
	VMOVUPD Y7, 224(DI)(AX*8)

#define LOAD8Y \
	VMOVUPD (DI)(AX*8), Y0; \
	VMOVUPD 32(DI)(AX*8), Y1

#define MADD8Y \
	VMULPD (R10), Y15, Y8; \
	VMULPD 32(R10), Y15, Y9; \
	VADDPD Y8, Y0, Y0; \
	VADDPD Y9, Y1, Y1

#define STORE8Y \
	VMOVUPD Y0, (DI)(AX*8); \
	VMOVUPD Y1, 32(DI)(AX*8)

#define LOAD32Z \
	VMOVUPD (DI)(AX*8), Z0; \
	VMOVUPD 64(DI)(AX*8), Z1; \
	VMOVUPD 128(DI)(AX*8), Z2; \
	VMOVUPD 192(DI)(AX*8), Z3

#define MADD32Z \
	VMULPD (R10), Z15, Z8; \
	VMULPD 64(R10), Z15, Z9; \
	VMULPD 128(R10), Z15, Z10; \
	VMULPD 192(R10), Z15, Z11; \
	VADDPD Z8, Z0, Z0; \
	VADDPD Z9, Z1, Z1; \
	VADDPD Z10, Z2, Z2; \
	VADDPD Z11, Z3, Z3

#define STORE32Z \
	VMOVUPD Z0, (DI)(AX*8); \
	VMOVUPD Z1, 64(DI)(AX*8); \
	VMOVUPD Z2, 128(DI)(AX*8); \
	VMOVUPD Z3, 192(DI)(AX*8)

#define MADD8Z \
	VMULPD (R10), Z15, Z8; \
	VADDPD Z8, Z0, Z0

// func matvecAVX2(dst, x, w []float64)
// Y15 is x[k].
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
	LOAD32Y
	MATVEC_KSTART

matvec_k32:
	CMPQ BX, R8
	JGE  matvec_store32
	MATVEC_SKIPZERO(matvec_skip32)
	VBROADCASTSD (SI)(BX*8), Y15
	MADD32Y

matvec_skip32:
	MATVEC_NEXTK
	JMP matvec_k32

matvec_store32:
	STORE32Y
	MOVQ DX, AX
	JMP  matvec_strip32

matvec_strip8:
	LEAQ 8(AX), DX
	CMPQ DX, CX
	JGT  matvec_tail1
	LOAD8Y
	MATVEC_KSTART

matvec_k8:
	CMPQ BX, R8
	JGE  matvec_store8
	MATVEC_SKIPZERO(matvec_skip8)
	VBROADCASTSD (SI)(BX*8), Y15
	MADD8Y

matvec_skip8:
	MATVEC_NEXTK
	JMP matvec_k8

matvec_store8:
	STORE8Y
	MOVQ DX, AX
	JMP  matvec_strip8

	MATVEC_TAIL

// func matvecAVX512(dst, x, w []float64)
// Z15 is x[k].
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
	LOAD32Z
	MATVEC_KSTART

matvec_k32:
	CMPQ BX, R8
	JGE  matvec_store32
	MATVEC_SKIPZERO(matvec_skip32)
	VBROADCASTSD (SI)(BX*8), Z15
	MADD32Z

matvec_skip32:
	MATVEC_NEXTK
	JMP matvec_k32

matvec_store32:
	STORE32Z
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
	MADD8Z

matvec_skip8:
	MATVEC_NEXTK
	JMP matvec_k8

matvec_store8:
	VMOVUPD Z0, (DI)(AX*8)
	MOVQ DX, AX
	JMP  matvec_strip8

	MATVEC_TAIL

// The two gradW bodies: wd[k*n+j] += sum over batch rows r ascending of
// a[r*in+k]*d[r*n+j] for k < kn, no zero skipped. Row k of wd is matvec's
// dst and column k of a its x, read with a stride of in: a strip of the row
// stays in registers for the whole row loop. Register use, both bodies: DI
// &wd[k*n], CX n, SI &a[k], R8 rows, R9 d, R11 the byte stride n*8 of a d
// row, R13 the byte stride in*8 of an a column, R14 the wd rows left (kn at
// the start), AX the strip's first j, DX its end, BX the batch rows left, R10
// &d[r*n+AX], R12 &a[r*in+k].

// GRADW_RSTART starts a strip's row loop.
#define GRADW_RSTART \
	LEAQ (R9)(AX*8), R10; \
	MOVQ SI, R12; \
	MOVQ R8, BX

// GRADW_NEXTR advances to the next batch row, and back to loop while one is
// left.
#define GRADW_NEXTR(loop) \
	ADDQ R11, R10; \
	ADDQ R13, R12; \
	DECQ BX; \
	JNZ  loop

// GRADW_NEXTK advances to the next row of wd, and back to loop while one is
// left; then returns.
#define GRADW_NEXTK(loop) \
	ADDQ R11, DI; \
	ADDQ $8, SI; \
	DECQ R14; \
	JNZ  loop; \
	VZEROUPPER; \
	RET

// func gradWAVX2(wd, a, d []float64, rows, kn, in, n int)
// Y15 (X15) is a[r*in+k]; the n mod 8 tail goes one element at a time.
TEXT ·gradWAVX2(SB), NOSPLIT, $0-104
	MOVQ wd_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ d_base+48(FP), R9
	MOVQ rows+72(FP), R8
	MOVQ kn+80(FP), R14
	MOVQ in+88(FP), R13
	SHLQ $3, R13
	MOVQ n+96(FP), CX
	MOVQ CX, R11
	SHLQ $3, R11

gradw_k:
	XORQ AX, AX

gradw_strip32:
	LEAQ 32(AX), DX
	CMPQ DX, CX
	JGT  gradw_strip8
	LOAD32Y
	GRADW_RSTART

gradw_r32:
	VBROADCASTSD (R12), Y15
	MADD32Y
	GRADW_NEXTR(gradw_r32)
	STORE32Y
	MOVQ DX, AX
	JMP  gradw_strip32

gradw_strip8:
	LEAQ 8(AX), DX
	CMPQ DX, CX
	JGT  gradw_tail1
	LOAD8Y
	GRADW_RSTART

gradw_r8:
	VBROADCASTSD (R12), Y15
	MADD8Y
	GRADW_NEXTR(gradw_r8)
	STORE8Y
	MOVQ DX, AX
	JMP  gradw_strip8

gradw_tail1:
	CMPQ AX, CX
	JGE  gradw_nextk
	VMOVSD (DI)(AX*8), X0
	GRADW_RSTART

gradw_r1:
	VMOVSD (R12), X15
	VMULSD (R10), X15, X8
	VADDSD X8, X0, X0
	GRADW_NEXTR(gradw_r1)
	VMOVSD X0, (DI)(AX*8)
	INCQ AX
	JMP  gradw_tail1

gradw_nextk:
	GRADW_NEXTK(gradw_k)

// func gradWAVX512(wd, a, d []float64, rows, kn, in, n int)
// Z15 is a[r*in+k]; the n mod 8 tail is one strip under the opmask K1, whose
// masked-off lanes are neither stored nor, past the operands' ends, loaded.
TEXT ·gradWAVX512(SB), NOSPLIT, $0-104
	MOVQ n+96(FP), CX
	ANDL $7, CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K1
	MOVQ wd_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ d_base+48(FP), R9
	MOVQ rows+72(FP), R8
	MOVQ kn+80(FP), R14
	MOVQ in+88(FP), R13
	SHLQ $3, R13
	MOVQ n+96(FP), CX
	MOVQ CX, R11
	SHLQ $3, R11

gradw_k:
	XORQ AX, AX

gradw_strip32:
	LEAQ 32(AX), DX
	CMPQ DX, CX
	JGT  gradw_strip8
	LOAD32Z
	GRADW_RSTART

gradw_r32:
	VBROADCASTSD (R12), Z15
	MADD32Z
	GRADW_NEXTR(gradw_r32)
	STORE32Z
	MOVQ DX, AX
	JMP  gradw_strip32

gradw_strip8:
	LEAQ 8(AX), DX
	CMPQ DX, CX
	JGT  gradw_tailmask
	VMOVUPD (DI)(AX*8), Z0
	GRADW_RSTART

gradw_r8:
	VBROADCASTSD (R12), Z15
	MADD8Z
	GRADW_NEXTR(gradw_r8)
	VMOVUPD Z0, (DI)(AX*8)
	MOVQ DX, AX
	JMP  gradw_strip8

gradw_tailmask:
	CMPQ AX, CX
	JGE  gradw_nextk
	VMOVUPD.Z (DI)(AX*8), K1, Z0
	GRADW_RSTART

gradw_rmask:
	VBROADCASTSD (R12), Z15
	VMULPD.Z (R10), Z15, K1, Z8
	VADDPD Z8, Z0, K1, Z0
	GRADW_NEXTR(gradw_rmask)
	VMOVUPD Z0, K1, (DI)(AX*8)

gradw_nextk:
	GRADW_NEXTK(gradw_k)

// The two gradX bodies: for each k, ad0[k] and ad1[k] += (l0+l1)+(l2+l3),
// lane l summing dr[j]*w[k*n+j] over j = l mod 4 ascending and lane 0 also
// the n mod 4 tail. Four k are taken per pass while four remain, the lanes of
// both rows in registers for the whole j loop, and the pass's sums are added
// to ad0[k..k+3] and ad1[k..k+3] one vector per row; then one k at a time.
// Register use, both bodies: DI ad0, R14 ad1 (nil: row 1's sums are dropped),
// SI d0, R9 d1, CX n, DX n &^ 3, R12 len(ad0), BX k, R8 &w[k*n], R11 the byte
// stride n*8 of a weight row, R13 3*n*8, R10 &w[k*n+j], AX j.

// GRADX_SETUP derives DX, R11 and R13 from n in CX, and starts k at 0.
#define GRADX_SETUP \
	MOVQ CX, DX; \
	ANDQ $~3, DX; \
	MOVQ CX, R11; \
	SHLQ $3, R11; \
	LEAQ (R11)(R11*2), R13; \
	XORQ BX, BX

// GRADX_MADD2Y adds the products of the w lanes in Y10 with the d0 and d1
// lanes in Y8, Y9 to the lane sets r0, r1.
#define GRADX_MADD2Y(r0, r1) \
	VMULPD Y10, Y8, Y11; \
	VMULPD Y10, Y9, Y12; \
	VADDPD Y11, r0, r0; \
	VADDPD Y12, r1, r1

// GRADX_SUM4 adds the sums (l0+l1)+(l2+l3) of the lane sets a, b, c, d — k
// ascending — to the four elements at dst; clobbers all four.
#define GRADX_SUM4(a, b, c, d, dst) \
	VHADDPD b, a, a; \
	VHADDPD d, c, c; \
	VPERM2F128 $0x20, c, a, b; \
	VPERM2F128 $0x31, c, a, d; \
	VADDPD d, b, b; \
	VADDPD dst, b, b; \
	VMOVUPD b, dst

// GRADX_SUM1 adds the sum (l0+l1)+(l2+l3) of the lane set ya (xa) to the
// element at dst; clobbers xt.
#define GRADX_SUM1(ya, xa, xt, dst) \
	VEXTRACTF128 $1, ya, xt; \
	VHADDPD xt, xa, xa; \
	VUNPCKHPD xa, xa, xt; \
	VADDSD xt, xa, xa; \
	VADDSD dst, xa, xa; \
	VMOVSD xa, dst

// GRADX_END4 adds a pass's sums, row 0's lane sets in Y0..Y3 and row 1's in
// Y4..Y7, and moves on four k.
#define GRADX_END4 \
	GRADX_SUM4(Y0, Y1, Y2, Y3, (DI)(BX*8)); \
	TESTQ R14, R14; \
	JZ   gradx_next4; \
	GRADX_SUM4(Y4, Y5, Y6, Y7, (R14)(BX*8)); \
gradx_next4: \
	ADDQ $4, BX; \
	LEAQ (R8)(R11*4), R8; \
	JMP  gradx_k4

// GRADX_K1 is both bodies' k tail, one k at a time with row 0's lanes in Y0
// and row 1's in Y4, and their return. In the j tail, a VMOVSD-loaded d and w
// are zero in lanes 1..3, so their product adds +0 there, which leaves a lane
// as it was: a lane starts at +0 and so never holds −0.
#define GRADX_K1 \
gradx_k1: \
	CMPQ BX, R12; \
	JGE  gradx_done; \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y4, Y4, Y4; \
	MOVQ R8, R10; \
	XORQ AX, AX; \
gradx_j1: \
	CMPQ AX, DX; \
	JGE  gradx_tail1; \
	VMOVUPD (SI)(AX*8), Y8; \
	VMOVUPD (R9)(AX*8), Y9; \
	VMOVUPD (R10), Y10; \
	GRADX_MADD2Y(Y0, Y4); \
	ADDQ $32, R10; \
	ADDQ $4, AX; \
	JMP  gradx_j1; \
gradx_tail1: \
	CMPQ AX, CX; \
	JGE  gradx_sum1; \
	VMOVSD (SI)(AX*8), X8; \
	VMOVSD (R9)(AX*8), X9; \
	VMOVSD (R10), X10; \
	GRADX_MADD2Y(Y0, Y4); \
	ADDQ $8, R10; \
	INCQ AX; \
	JMP  gradx_tail1; \
gradx_sum1: \
	GRADX_SUM1(Y0, X0, X1, (DI)(BX*8)); \
	TESTQ R14, R14; \
	JZ   gradx_next1; \
	GRADX_SUM1(Y4, X4, X5, (R14)(BX*8)); \
gradx_next1: \
	INCQ BX; \
	ADDQ R11, R8; \
	JMP  gradx_k1; \
gradx_done: \
	VZEROUPPER; \
	RET

// func gradXAVX2(ad0, ad1, d0, d1, w []float64)
// Row 0's lanes for k..k+3 are Y0..Y3, row 1's Y4..Y7; Y8, Y9 hold the d0 and
// d1 lanes, Y10 the w lanes. The j tail adds through VMOVSD-loaded lanes, as
// in GRADX_K1.
TEXT ·gradXAVX2(SB), NOSPLIT, $0-120
	MOVQ ad0_base+0(FP), DI
	MOVQ ad0_len+8(FP), R12
	MOVQ ad1_base+24(FP), R14
	MOVQ d0_base+48(FP), SI
	MOVQ d0_len+56(FP), CX
	MOVQ d1_base+72(FP), R9
	MOVQ w_base+96(FP), R8
	GRADX_SETUP

gradx_k4:
	LEAQ 4(BX), R10
	CMPQ R10, R12
	JGT  gradx_k1
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ R8, R10
	XORQ AX, AX
	TESTQ DX, DX
	JZ   gradx_tail4

gradx_j4:
	VMOVUPD (SI)(AX*8), Y8
	VMOVUPD (R9)(AX*8), Y9
	VMOVUPD (R10), Y10
	GRADX_MADD2Y(Y0, Y4)
	VMOVUPD (R10)(R11*1), Y10
	GRADX_MADD2Y(Y1, Y5)
	VMOVUPD (R10)(R11*2), Y10
	GRADX_MADD2Y(Y2, Y6)
	VMOVUPD (R10)(R13*1), Y10
	GRADX_MADD2Y(Y3, Y7)
	ADDQ $32, R10
	ADDQ $4, AX
	CMPQ AX, DX
	JLT  gradx_j4

gradx_tail4:
	CMPQ AX, CX
	JGE  gradx_sum4
	VMOVSD (SI)(AX*8), X8
	VMOVSD (R9)(AX*8), X9
	VMOVSD (R10), X10
	GRADX_MADD2Y(Y0, Y4)
	VMOVSD (R10)(R11*1), X10
	GRADX_MADD2Y(Y1, Y5)
	VMOVSD (R10)(R11*2), X10
	GRADX_MADD2Y(Y2, Y6)
	VMOVSD (R10)(R13*1), X10
	GRADX_MADD2Y(Y3, Y7)
	ADDQ $8, R10
	INCQ AX
	JMP  gradx_tail4

gradx_sum4:
	GRADX_END4

	GRADX_K1

// func gradXAVX512(ad0, ad1, d0, d1, w []float64)
// Z0..Z3 hold the lanes for k..k+3, row 0's in the low half and row 1's in
// the high half; Z8 holds the d0 and d1 lanes side by side, and Z9..Z12 the w
// lanes of the four k, each copied to both halves. The j tail adds through
// the opmask K1 = {lane 0, lane 4}.
TEXT ·gradXAVX512(SB), NOSPLIT, $0-120
	MOVQ ad0_base+0(FP), DI
	MOVQ ad0_len+8(FP), R12
	MOVQ ad1_base+24(FP), R14
	MOVQ d0_base+48(FP), SI
	MOVQ d0_len+56(FP), CX
	MOVQ d1_base+72(FP), R9
	MOVQ w_base+96(FP), R8
	MOVL $0x11, AX
	KMOVW AX, K1
	GRADX_SETUP

gradx_k4:
	LEAQ 4(BX), R10
	CMPQ R10, R12
	JGT  gradx_k1
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ R8, R10
	XORQ AX, AX
	TESTQ DX, DX
	JZ   gradx_tail4

gradx_j4:
	VMOVUPD (SI)(AX*8), Y8
	VINSERTF64X4 $1, (R9)(AX*8), Z8, Z8
	VBROADCASTF64X4 (R10), Z9
	VBROADCASTF64X4 (R10)(R11*1), Z10
	VBROADCASTF64X4 (R10)(R11*2), Z11
	VBROADCASTF64X4 (R10)(R13*1), Z12
	VMULPD Z9, Z8, Z9
	VMULPD Z10, Z8, Z10
	VMULPD Z11, Z8, Z11
	VMULPD Z12, Z8, Z12
	VADDPD Z9, Z0, Z0
	VADDPD Z10, Z1, Z1
	VADDPD Z11, Z2, Z2
	VADDPD Z12, Z3, Z3
	ADDQ $32, R10
	ADDQ $4, AX
	CMPQ AX, DX
	JLT  gradx_j4

gradx_tail4:
	CMPQ AX, CX
	JGE  gradx_sum4
	VBROADCASTSD (SI)(AX*8), Z8
	VBROADCASTSD (R9)(AX*8), Y9
	VINSERTF64X4 $1, Y9, Z8, Z8
	VBROADCASTSD (R10), Z9
	VBROADCASTSD (R10)(R11*1), Z10
	VBROADCASTSD (R10)(R11*2), Z11
	VBROADCASTSD (R10)(R13*1), Z12
	VMULPD Z9, Z8, Z9
	VMULPD Z10, Z8, Z10
	VMULPD Z11, Z8, Z11
	VMULPD Z12, Z8, Z12
	VADDPD Z9, Z0, K1, Z0
	VADDPD Z10, Z1, K1, Z1
	VADDPD Z11, Z2, K1, Z2
	VADDPD Z12, Z3, K1, Z3
	ADDQ $8, R10
	INCQ AX
	JMP  gradx_tail4

gradx_sum4:
	VEXTRACTF64X4 $1, Z0, Y4
	VEXTRACTF64X4 $1, Z1, Y5
	VEXTRACTF64X4 $1, Z2, Y6
	VEXTRACTF64X4 $1, Z3, Y7
	GRADX_END4

	GRADX_K1

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
