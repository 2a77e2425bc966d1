//go:build amd64

package tensor

// On amd64 with AVX, MatMulInto32 runs the 8-lane gemvAVX kernel; the
// choice is made once, here. Without AVX (or without OS support for
// the YMM state) it keeps the portable matMul32Generic.
func init() {
	if hasAVX() {
		matMul32 = matMul32AVX
	}
}

// hasAVX reports whether the CPU has AVX (CPUID.1:ECX bit 28) and the
// OS saves the XMM and YMM state across context switches (OSXSAVE,
// bit 27, and XCR0 bits 1 and 2).
func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	return xgetbv0()&6 == 6
}

// matMul32AVX computes one output row per gemvAVX call: the assembly
// kernel walks the k-quartets and the packed j-lanes itself, so the Go
// side pays one call per row instead of one per k-quartet. The scalar
// k-tail keeps the same left-to-right add order as the kernel, so
// results match the generic build bitwise.
func matMul32AVX(dst, a, b *Matrix32) {
	n, bc := a.Cols, b.Cols
	kq := n &^ 3
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*n : (i+1)*n]
		drow := dst.Data[i*bc : (i+1)*bc]
		if kq > 0 {
			gemvAVX(drow, arow[:kq], b.Data[:kq*bc])
		}
		for k := kq; k < n; k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			brow := b.Data[k*bc : (k+1)*bc]
			for j, bv := range brow {
				drow[j] += float32(av * bv)
			}
		}
	}
}

// gemvAVX computes dst[j] += Σ_k a[k]*b[k*len(dst)+j] over k-quartets:
// len(a) must be a multiple of 4 and len(b) >= len(a)*len(dst).
// All-zero a-quartets are skipped exactly as in the generic kernel.
// It needs AVX. Implemented in matmul32_amd64.s.
//
//go:noescape
func gemvAVX(dst, a, b []float32)

// cpuid executes CPUID for the leaf and sub-leaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low word of XCR0. Only valid once CPUID reports
// OSXSAVE.
func xgetbv0() (eax uint32)
