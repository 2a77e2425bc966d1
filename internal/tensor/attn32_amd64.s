//go:build amd64

#include "textflag.h"

// func QKScores8(dst, q, k []float32, stride int)
//
// dst[j] = Σ_{c<8} q[c]*k[j*stride+c]. The eight-wide query row stays
// resident in X0/X1; each key row is one strided load pair, multiplied
// and folded horizontally (0+4, 1+5, 2+6, 3+7, then pairwise).
TEXT ·QKScores8(SB), NOSPLIT, $0-80
	MOVQ	dst_base+0(FP), DI
	MOVQ	dst_len+8(FP), CX
	TESTQ	CX, CX
	JZ	qkdone
	MOVQ	q_base+24(FP), SI
	MOVQ	k_base+48(FP), R8
	MOVQ	stride+72(FP), R9
	SHLQ	$2, R9		// element stride -> byte stride
	MOVUPS	(SI), X0
	MOVUPS	16(SI), X1

qkloop:
	MOVUPS	(R8), X2
	MOVUPS	16(R8), X3
	MULPS	X0, X2
	MULPS	X1, X3
	ADDPS	X3, X2		// lanes: q0k0+q4k4, q1k1+q5k5, q2k2+q6k6, q3k3+q7k7
	MOVHLPS	X2, X3		// X3 low pair = X2 high pair
	ADDPS	X2, X3		// lane0 = l0+l2, lane1 = l1+l3
	MOVAPS	X3, X4
	SHUFPS	$0x55, X4, X4	// broadcast lane1
	ADDSS	X4, X3		// lane0 = l0+l2+l1+l3
	MOVSS	X3, (DI)

	ADDQ	R9, R8
	ADDQ	$4, DI
	DECQ	CX
	JNZ	qkloop

qkdone:
	RET

// func AttnV8(out, w, v []float32, stride int)
//
// out[0:8] += w[j]*v[j*stride : +8] for every j. The eight output
// lanes accumulate in X0/X1 across the whole weight row and store
// once, so per-lane add order matches the scalar loop exactly.
TEXT ·AttnV8(SB), NOSPLIT, $0-80
	MOVQ	w_base+24(FP), SI
	MOVQ	w_len+32(FP), CX
	TESTQ	CX, CX
	JZ	avdone
	MOVQ	out_base+0(FP), DI
	MOVQ	v_base+48(FP), R8
	MOVQ	stride+72(FP), R9
	SHLQ	$2, R9
	MOVUPS	(DI), X0
	MOVUPS	16(DI), X1

avloop:
	MOVSS	(SI), X2
	SHUFPS	$0x00, X2, X2
	MOVUPS	(R8), X3
	MOVUPS	16(R8), X4
	MULPS	X2, X3
	MULPS	X2, X4
	ADDPS	X3, X0
	ADDPS	X4, X1

	ADDQ	$4, SI
	ADDQ	R9, R8
	DECQ	CX
	JNZ	avloop

	MOVUPS	X0, (DI)
	MOVUPS	X1, 16(DI)

avdone:
	RET

// Broadcast constants of the softmax exponential, one 16-byte vector
// each; the values are the exp32* constants of softmax32.go.
#define K4(off, bits) DATA softmaxK<>+(off)(SB)/4, $bits; DATA softmaxK<>+(off+4)(SB)/4, $bits; DATA softmaxK<>+(off+8)(SB)/4, $bits; DATA softmaxK<>+(off+12)(SB)/4, $bits
K4(0, 0x3fb8aa3b)	// log2e
K4(16, 0x3f000000)	// 0.5 (also p5, which rounds to 0.5 in float32)
K4(32, 0x3f800000)	// 1.0
K4(48, 0x3f318000)	// C1
K4(64, 0xb95e8083)	// C2
K4(80, 0xc2ae999a)	// cutoff -87.3
K4(96, 0x39506967)	// p0
K4(112, 0x3ab743ce)	// p1
K4(128, 0x3c088908)	// p2
K4(144, 0x3d2aa9c1)	// p3
K4(160, 0x3e2aaaaa)	// p4
K4(176, 0x0000007f)	// int32 127, the exponent bias
GLOBL softmaxK<>(SB), RODATA|NOPTR, $192

// func softmax32(row []float32)
//
// In-place softmax over len(row)/4 packed quartets (the Go wrapper
// checks the length): a packed max, then per quartet a Cephes-style
// exponential of x-max summed into four lane accumulators, then one
// division and a packed scale. Lanes whose x-max is below the cutoff
// are masked to exactly 0. softmax32Generic is the lane-for-lane
// twin; the fold orders below are the ones it spells out.
//
// Register use: DI row base, CX quartet count, SI/BX walk; X15 max,
// X14 cutoff, X13 log2e, X12 0.5, X11 1.0, X10 C1, X9 C2, X8 lane
// sums; X0-X7 scratch.
TEXT ·softmax32(SB), NOSPLIT, $0-24
	MOVQ	row_base+0(FP), DI
	MOVQ	row_len+8(FP), CX
	SHRQ	$2, CX
	JZ	smdone

	// Packed max, then fold lanes (0 with 2, 1 with 3, then the pair)
	// and broadcast.
	MOVUPS	(DI), X15
	MOVQ	DI, SI
	MOVQ	CX, BX
	DECQ	BX
	JZ	smfold
smmax:
	ADDQ	$16, SI
	MOVUPS	(SI), X0
	MAXPS	X0, X15
	DECQ	BX
	JNZ	smmax
smfold:
	MOVAPS	X15, X0
	MOVHLPS	X15, X0
	MAXPS	X0, X15
	MOVAPS	X15, X0
	SHUFPS	$0x55, X0, X0
	MAXSS	X0, X15
	SHUFPS	$0x00, X15, X15

	MOVUPS	softmaxK<>+80(SB), X14
	MOVUPS	softmaxK<>+0(SB), X13
	MOVUPS	softmaxK<>+16(SB), X12
	MOVUPS	softmaxK<>+32(SB), X11
	MOVUPS	softmaxK<>+48(SB), X10
	MOVUPS	softmaxK<>+64(SB), X9
	XORPS	X8, X8
	MOVQ	DI, SI
	MOVQ	CX, BX

smexp:
	MOVUPS	(SI), X0
	SUBPS	X15, X0		// d = x - max
	MOVAPS	X0, X7
	CMPPS	X14, X7, $1	// X7 = d < cutoff
	// n = floor(d*log2e + 0.5): truncate, minus 1 where that rounded up.
	MOVAPS	X0, X1
	MULPS	X13, X1
	ADDPS	X12, X1		// fx
	CVTTPS2PL X1, X2
	CVTPL2PS X2, X2		// trunc(fx)
	MOVAPS	X1, X3
	CMPPS	X2, X3, $1	// fx < trunc(fx)
	ANDPS	X11, X3
	SUBPS	X3, X2		// n
	// r = d - n*C1 - n*C2
	MOVAPS	X2, X3
	MULPS	X10, X3
	SUBPS	X3, X0
	MOVAPS	X2, X3
	MULPS	X9, X3
	SUBPS	X3, X0
	MOVAPS	X0, X4
	MULPS	X0, X4		// z = r*r
	// y = ((((p0*r + p1)*r + p2)*r + p3)*r + p4)*r + p5
	MOVUPS	softmaxK<>+96(SB), X5
	MULPS	X0, X5
	ADDPS	softmaxK<>+112(SB), X5
	MULPS	X0, X5
	ADDPS	softmaxK<>+128(SB), X5
	MULPS	X0, X5
	ADDPS	softmaxK<>+144(SB), X5
	MULPS	X0, X5
	ADDPS	softmaxK<>+160(SB), X5
	MULPS	X0, X5
	ADDPS	X12, X5
	// e^r = y*z + r + 1
	MULPS	X4, X5
	ADDPS	X0, X5
	ADDPS	X11, X5
	// times 2^n: n+127 shifted into the exponent field
	CVTTPS2PL X2, X2
	PADDL	softmaxK<>+176(SB), X2
	PSLLL	$23, X2
	MULPS	X2, X5
	ANDNPS	X5, X7		// zero the lanes below the cutoff
	MOVUPS	X7, (SI)
	ADDPS	X7, X8

	ADDQ	$16, SI
	DECQ	BX
	JNZ	smexp

	// sum = (s0+s2) + (s1+s3); scale by its reciprocal.
	MOVAPS	X8, X0
	MOVHLPS	X8, X0
	ADDPS	X8, X0
	MOVAPS	X0, X1
	SHUFPS	$0x55, X1, X1
	ADDSS	X1, X0
	MOVAPS	X11, X1
	DIVSS	X0, X1
	SHUFPS	$0x00, X1, X1
	MOVQ	DI, SI
	MOVQ	CX, BX

smscale:
	MOVUPS	(SI), X0
	MULPS	X1, X0
	MOVUPS	X0, (SI)
	ADDQ	$16, SI
	DECQ	BX
	JNZ	smscale

smdone:
	RET
