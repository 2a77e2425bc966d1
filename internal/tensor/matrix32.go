package tensor

import "fmt"

// Matrix32 is a dense, row-major float32 matrix — the storage type of
// the single-precision scoring fast path. It is inference-only: no
// tape, no gradients. float64 Matrix remains the training and reference
// type; Matrix32 halves the memory traffic of the scoring matmuls,
// which are bandwidth-bound at serving batch sizes (the weights stream
// from L2/L3 while the activation blocks are revisited per k-quartet).
type Matrix32 struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix32 returns a zero-initialized Rows x Cols float32 matrix.
func NewMatrix32(rows, cols int) *Matrix32 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Matrix32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Matrix32From converts a float64 matrix by value truncation — the
// once-per-checkpoint weight conversion of the float32 scoring path.
func Matrix32From(m *Matrix) *Matrix32 {
	out := NewMatrix32(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = float32(v)
	}
	return out
}

// Row returns a view (shared backing array) of row r.
func (m *Matrix32) Row(r int) []float32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// At returns the element at row r, column c.
func (m *Matrix32) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Zero sets all elements to zero.
func (m *Matrix32) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// RowsView returns rows [from, to) as a matrix sharing m's backing
// array.
func (m *Matrix32) RowsView(from, to int) *Matrix32 {
	if from < 0 || from > to || to > m.Rows {
		panic(fmt.Sprintf("tensor: rows view [%d:%d) of %d rows", from, to, m.Rows))
	}
	return &Matrix32{Rows: to - from, Cols: m.Cols, Data: m.Data[from*m.Cols : to*m.Cols]}
}

// MatMulInto32 computes dst = a·b in float32. dst must not alias a or
// b. On amd64 with AVX the inner loop is an 8-lane assembly kernel
// (the parallelism the scalar float64 path cannot reach); elsewhere it
// is a register-blocked pure-Go kernel. Both walk k in quartets with
// identical left-to-right add order and separately rounded products,
// so the two agree bitwise, and all-zero a-quartets (padded or masked
// inputs) are skipped exactly as in the float64 kernel.
func MatMulInto32(dst, a, b *Matrix32) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul32 shape mismatch (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	dst.Zero()
	matMul32(dst, a, b)
}

// matMul32 is the kernel behind MatMulInto32: matMul32Generic, or on
// amd64 the AVX kernel when the CPU has it, chosen once at init.
var matMul32 = matMul32Generic

// matMul32Generic is the portable kernel behind MatMulInto32,
// register-blocked 4 rows x 4 k-terms: each pass over a destination
// quartet reuses the four streamed b-rows across four output rows,
// quartering the b-matrix traffic. dst is pre-zeroed by the caller.
//
// Every product is rounded by an explicit float32 conversion: Go may
// fuse x*y+z into one FMA (on arm64, or on amd64 with GOAMD64=v3),
// which rounds once where the assembly kernel rounds twice.
func matMul32Generic(dst, a, b *Matrix32) {
	n, bc := a.Cols, b.Cols
	i := 0
	for ; i+4 <= a.Rows; i += 4 {
		ar0 := a.Data[i*n : (i+1)*n]
		ar1 := a.Data[(i+1)*n : (i+2)*n]
		ar2 := a.Data[(i+2)*n : (i+3)*n]
		ar3 := a.Data[(i+3)*n : (i+4)*n]
		dr0 := dst.Data[i*bc : (i+1)*bc]
		dr1 := dst.Data[(i+1)*bc : (i+2)*bc]
		dr2 := dst.Data[(i+2)*bc : (i+3)*bc]
		dr3 := dst.Data[(i+3)*bc : (i+4)*bc]
		k := 0
		for ; k+4 <= n; k += 4 {
			a00, a01, a02, a03 := ar0[k], ar0[k+1], ar0[k+2], ar0[k+3]
			a10, a11, a12, a13 := ar1[k], ar1[k+1], ar1[k+2], ar1[k+3]
			a20, a21, a22, a23 := ar2[k], ar2[k+1], ar2[k+2], ar2[k+3]
			a30, a31, a32, a33 := ar3[k], ar3[k+1], ar3[k+2], ar3[k+3]
			if a00 == 0 && a01 == 0 && a02 == 0 && a03 == 0 &&
				a10 == 0 && a11 == 0 && a12 == 0 && a13 == 0 &&
				a20 == 0 && a21 == 0 && a22 == 0 && a23 == 0 &&
				a30 == 0 && a31 == 0 && a32 == 0 && a33 == 0 {
				continue
			}
			b0 := b.Data[k*bc : (k+1)*bc]
			b1 := b.Data[(k+1)*bc : (k+2)*bc]
			b2 := b.Data[(k+2)*bc : (k+3)*bc]
			b3 := b.Data[(k+3)*bc : (k+4)*bc : (k+4)*bc]
			for j := range b3 {
				v0, v1, v2, v3 := b0[j], b1[j], b2[j], b3[j]
				dr0[j] += float32(a00*v0) + float32(a01*v1) + float32(a02*v2) + float32(a03*v3)
				dr1[j] += float32(a10*v0) + float32(a11*v1) + float32(a12*v2) + float32(a13*v3)
				dr2[j] += float32(a20*v0) + float32(a21*v1) + float32(a22*v2) + float32(a23*v3)
				dr3[j] += float32(a30*v0) + float32(a31*v1) + float32(a32*v2) + float32(a33*v3)
			}
		}
		for ; k < n; k++ {
			a0v, a1v, a2v, a3v := ar0[k], ar1[k], ar2[k], ar3[k]
			if a0v == 0 && a1v == 0 && a2v == 0 && a3v == 0 {
				continue
			}
			brow := b.Data[k*bc : (k+1)*bc]
			for j, bv := range brow {
				dr0[j] += float32(a0v * bv)
				dr1[j] += float32(a1v * bv)
				dr2[j] += float32(a2v * bv)
				dr3[j] += float32(a3v * bv)
			}
		}
	}
	for ; i < a.Rows; i++ {
		arow := a.Data[i*n : (i+1)*n]
		drow := dst.Data[i*bc : (i+1)*bc]
		k := 0
		for ; k+4 <= n; k += 4 {
			a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			b0 := b.Data[k*bc : (k+1)*bc]
			b1 := b.Data[(k+1)*bc : (k+2)*bc]
			b2 := b.Data[(k+2)*bc : (k+3)*bc]
			b3 := b.Data[(k+3)*bc : (k+4)*bc : (k+4)*bc]
			for j := range b3 {
				drow[j] += float32(a0*b0[j]) + float32(a1*b1[j]) + float32(a2*b2[j]) + float32(a3*b3[j])
			}
		}
		for ; k < n; k++ {
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

// BatchMatMulNT32 computes, per block i, out_i = A_i·B_iᵀ in float32 —
// the grad-free single-precision variant of the tape's BatchMatMulNT
// (batched attention-score product Q·Kᵀ without materializing
// transposes). A stacks batch ra×c blocks, B stacks batch rb×c blocks,
// dst stacks batch ra×rb blocks; all three must be pre-shaped.
func BatchMatMulNT32(dst, a, b *Matrix32, batch int) {
	if batch < 1 || a.Rows%batch != 0 || b.Rows%batch != 0 || dst.Rows%batch != 0 {
		panic(fmt.Sprintf("tensor: batched NT32 rows %d/%d/%d not divisible by batch %d",
			dst.Rows, a.Rows, b.Rows, batch))
	}
	ra, rb := a.Rows/batch, b.Rows/batch
	if a.Cols != b.Cols || dst.Rows/batch != ra || dst.Cols != rb {
		panic(fmt.Sprintf("tensor: batched NT32 shape mismatch (%dx%d)·(%dx%d)ᵀ->(%dx%d) batch %d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols, batch))
	}
	c := a.Cols
	for blk := 0; blk < batch; blk++ {
		for i := 0; i < ra; i++ {
			arow := a.Data[(blk*ra+i)*c : (blk*ra+i+1)*c]
			drow := dst.Data[(blk*ra+i)*rb : (blk*ra+i+1)*rb]
			for j := 0; j < rb; j++ {
				brow := b.Data[(blk*rb+j)*c : (blk*rb+j+1)*c]
				var s float32
				for k, av := range arow {
					s += av * brow[k]
				}
				drow[j] = s
			}
		}
	}
}
