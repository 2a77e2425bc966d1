//go:build amd64

#include "textflag.h"

// func gemvAVX(dst, a, b []float32)
//
// dst[j] += a[0]*b0[j] + a[1]*b1[j] + a[2]*b2[j] + a[3]*b3[j] + ... for
// each successive quartet of a, where bk is row k of the len(a) x
// len(dst) row-major block b. Per element the products are rounded
// separately (VMULPS then VADDPS, never FMA), the adds run strictly
// left to right within a quartet and quartets ascend, so every lane
// does what the generic Go kernel does and the result is bitwise
// identical to it. The body handles 16 lanes per iteration, then one
// 8-lane step, then a scalar tail; all-zero quartets (padded or masked
// inputs) are skipped.
//
// Every instruction is VEX-encoded: a legacy-SSE instruction between
// 256-bit ones costs an AVX/SSE state transition, and VZEROUPPER on
// exit keeps the caller's SSE code free of that penalty.
//
// Register use: DI dst base, CX lane count, SI a walk, R12 quartet
// count, R11 current quartet's first b row; per quartet R8/R9/R10/R14
// walk the four b rows and DX walks dst, with BX/AX as loop counters.
TEXT ·gemvAVX(SB), NOSPLIT, $0-72
	MOVQ	dst_base+0(FP), DI
	MOVQ	dst_len+8(FP), CX
	MOVQ	a_base+24(FP), SI
	MOVQ	a_len+32(FP), R12
	MOVQ	b_base+48(FP), R11
	SHRQ	$2, R12
	JZ	done
	TESTQ	CX, CX
	JZ	done
	VXORPS	X9, X9, X9

quartet:
	// Skip the quartet when every coefficient == 0 (an ordered-equal
	// compare, like the generic kernel's a == 0, so -0 skips too).
	VCMPPS	$0, (SI), X9, X8
	VMOVMSKPS X8, AX
	CMPL	AX, $15
	JEQ	nextq

	VBROADCASTSS (SI), Y0
	VBROADCASTSS 4(SI), Y1
	VBROADCASTSS 8(SI), Y2
	VBROADCASTSS 12(SI), Y3

	// The quartet's four b rows and the dst walk.
	MOVQ	R11, R8
	LEAQ	(R8)(CX*4), R9
	LEAQ	(R9)(CX*4), R10
	LEAQ	(R10)(CX*4), R14
	MOVQ	DI, DX

	MOVQ	CX, BX
	SHRQ	$4, BX
	JZ	tail8

loop16:
	VMULPS	(R8), Y0, Y4
	VMULPS	32(R8), Y0, Y5
	VMULPS	(R9), Y1, Y6
	VMULPS	32(R9), Y1, Y7
	VADDPS	Y6, Y4, Y4
	VADDPS	Y7, Y5, Y5
	VMULPS	(R10), Y2, Y6
	VMULPS	32(R10), Y2, Y7
	VADDPS	Y6, Y4, Y4
	VADDPS	Y7, Y5, Y5
	VMULPS	(R14), Y3, Y6
	VMULPS	32(R14), Y3, Y7
	VADDPS	Y6, Y4, Y4
	VADDPS	Y7, Y5, Y5
	// dst += t (t + dst == dst + t bitwise for IEEE adds)
	VADDPS	(DX), Y4, Y4
	VADDPS	32(DX), Y5, Y5
	VMOVUPS	Y4, (DX)
	VMOVUPS	Y5, 32(DX)

	ADDQ	$64, R8
	ADDQ	$64, R9
	ADDQ	$64, R10
	ADDQ	$64, R14
	ADDQ	$64, DX
	DECQ	BX
	JNZ	loop16

tail8:
	TESTQ	$8, CX
	JZ	tail1
	VMULPS	(R8), Y0, Y4
	VMULPS	(R9), Y1, Y6
	VADDPS	Y6, Y4, Y4
	VMULPS	(R10), Y2, Y6
	VADDPS	Y6, Y4, Y4
	VMULPS	(R14), Y3, Y6
	VADDPS	Y6, Y4, Y4
	VADDPS	(DX), Y4, Y4
	VMOVUPS	Y4, (DX)
	ADDQ	$32, R8
	ADDQ	$32, R9
	ADDQ	$32, R10
	ADDQ	$32, R14
	ADDQ	$32, DX

tail1:
	MOVQ	CX, AX
	ANDQ	$7, AX
	JZ	nextq

loop1:
	VMULSS	(R8), X0, X4
	VMULSS	(R9), X1, X5
	VADDSS	X5, X4, X4
	VMULSS	(R10), X2, X5
	VADDSS	X5, X4, X4
	VMULSS	(R14), X3, X5
	VADDSS	X5, X4, X4
	VADDSS	(DX), X4, X4
	VMOVSS	X4, (DX)

	ADDQ	$4, R8
	ADDQ	$4, R9
	ADDQ	$4, R10
	ADDQ	$4, R14
	ADDQ	$4, DX
	DECQ	AX
	JNZ	loop1

nextq:
	// Advance to the next quartet: b forward four rows, a by 16 bytes.
	MOVQ	CX, AX
	SHLQ	$4, AX
	ADDQ	AX, R11
	ADDQ	$16, SI
	DECQ	R12
	JNZ	quartet

done:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL	leaf+0(FP), AX
	MOVL	sub+4(FP), CX
	CPUID
	MOVL	AX, eax+8(FP)
	MOVL	BX, ebx+12(FP)
	MOVL	CX, ecx+16(FP)
	MOVL	DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL	$0, CX
	XGETBV
	MOVL	AX, eax+0(FP)
	RET
