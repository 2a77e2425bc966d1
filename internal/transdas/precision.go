package transdas

import (
	"fmt"
	"sync/atomic"

	"github.com/ucad/ucad/internal/tensor"
)

// Precision selects the scoring kernel data type. Training and the
// property-tested reference path are always float64; float32 is an
// opt-in inference fast path that halves the memory traffic of the
// scoring matmuls and, on amd64, runs the attention products and the
// softmax through packed SSE2 kernels and the matmuls through an AVX
// kernel, which falls back to portable Go on a CPU without AVX. The
// scalar float64 path has none of these.
type Precision int

const (
	// PrecisionFloat64 scores through the double-precision kernel — the
	// reference path, pinned to the tape forward within 1e-9.
	PrecisionFloat64 Precision = iota
	// PrecisionFloat32 scores through the single-precision kernel, from
	// a weight snapshot converted once per weight generation; scores
	// agree with the reference within 1e-4 and verdicts/ranks are stable
	// on the paper's workloads (see the float32 equivalence suite).
	PrecisionFloat32
)

// String implements fmt.Stringer.
func (p Precision) String() string {
	if p == PrecisionFloat32 {
		return "float32"
	}
	return "float64"
}

// ParsePrecision parses a -score-precision flag value. The empty
// string means the float64 default.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "float64", "f64", "64":
		return PrecisionFloat64, nil
	case "float32", "f32", "32":
		return PrecisionFloat32, nil
	}
	return PrecisionFloat64, fmt.Errorf("transdas: unknown score precision %q (want float64 or float32)", s)
}

// elem is the element type of the scoring forward pass.
type elem interface{ float32 | float64 }

// mat is a dense row-major matrix of either precision. It has the
// layout of tensor.Matrix (float64) and tensor.Matrix32 (float32), so
// a *mat converts to the type the tensor kernels take, and a float64
// snapshot can view the live weight matrices without copying them.
type mat[T elem] struct {
	Rows, Cols int
	Data       []T
}

func newMat[T elem](rows, cols int) *mat[T] {
	return &mat[T]{Rows: rows, Cols: cols, Data: make([]T, rows*cols)}
}

// Row returns a view (shared backing array) of row r.
func (m *mat[T]) Row(r int) []T { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// kernels are one precision's primitives of the scoring forward pass,
// fixed per element type, so a pass picks its kernels once through its
// snapshot instead of per element.
type kernels[T elem] struct {
	// weight views (float64) or converts (float32) a live weight
	// matrix for the snapshot.
	weight func(*tensor.Matrix) *mat[T]
	// matMul computes dst = a·b; dst must not alias a or b.
	matMul func(dst, a, b *mat[T])
	// softmax normalizes a score row in place; len(row) is a multiple
	// of 4 and masked entries come out exactly 0.
	softmax func(row []T)
	// qkScores8 and attnV8 are the packed score and value-mix kernels
	// for head width 8, nil where the precision has none.
	qkScores8 func(dst, q, k []T, stride int)
	attnV8    func(out, w, v []T, stride int)
}

var kernels64 = &kernels[float64]{
	weight: func(m *tensor.Matrix) *mat[float64] { return (*mat[float64])(m) },
	matMul: func(dst, a, b *mat[float64]) {
		tensor.MatMulInto((*tensor.Matrix)(dst), (*tensor.Matrix)(a), (*tensor.Matrix)(b))
	},
	softmax: func(row []float64) { tensor.SoftmaxInto(row, row) },
}

var kernels32 = &kernels[float32]{
	weight: func(m *tensor.Matrix) *mat[float32] { return (*mat[float32])(tensor.Matrix32From(m)) },
	matMul: func(dst, a, b *mat[float32]) {
		tensor.MatMulInto32((*tensor.Matrix32)(dst), (*tensor.Matrix32)(a), (*tensor.Matrix32)(b))
	},
	softmax:   tensor.Softmax32,
	qkScores8: tensor.QKScores8,
	attnV8:    tensor.AttnV8,
}

// snapshot is the scoring view of the model weights for one weight
// generation (checkpoint load, fine-tune round, hot swap), built at
// most once per generation and shared read-only by every Scorer. The
// float64 snapshot aliases the live weight matrices; the float32 one
// converts them. Both precompute the fused Q|K|V projection concat.
type snapshot[T elem] struct {
	gen uint64
	k   *kernels[T]
	// emb doubles as the Eq. 1 embedding table and the Eq. 10 read-out
	// table.
	emb    *mat[T]
	pos    *mat[T] // nil unless cfg.Positional
	blocks []snapBlock[T]
}

// snapBlock is one attention block's weights.
type snapBlock[T elem] struct {
	wqkv                   *mat[T] // h x 3h fused Q|K|V projection
	wo, w1, w2             *mat[T]
	ln1g, ln1b, ln2g, ln2b []T
	ln1eps, ln2eps         float64
	b1, b2                 []T
}

// loadSnapshot returns the weight snapshot in cur if it is of the
// current weight generation and rebuilds it with kernels k otherwise
// (double-checked under snapMu). Safe for concurrent scorers; callers
// must externally serialize against weight mutation exactly as scoring
// always is.
func loadSnapshot[T elem](m *Model, cur *atomic.Pointer[snapshot[T]], k *kernels[T]) *snapshot[T] {
	gen := m.weightGen.Load()
	if s := cur.Load(); s != nil && s.gen == gen {
		return s
	}
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	gen = m.weightGen.Load()
	if s := cur.Load(); s != nil && s.gen == gen {
		return s
	}
	s := buildSnapshot(m, gen, k)
	cur.Store(s)
	return s
}

// buildSnapshot views or converts the current weights. Caller holds
// snapMu.
func buildSnapshot[T elem](m *Model, gen uint64, k *kernels[T]) *snapshot[T] {
	h := m.cfg.Hidden
	s := &snapshot[T]{gen: gen, k: k, emb: k.weight(m.emb.Table.Value)}
	if m.pos != nil {
		s.pos = k.weight(m.pos.Value)
	}
	s.blocks = make([]snapBlock[T], len(m.blocks))
	for i, blk := range m.blocks {
		b := &s.blocks[i]
		b.wqkv = newMat[T](h, 3*h)
		wq, wk, wv := blk.att.WQ.Value, blk.att.WK.Value, blk.att.WV.Value
		for r := 0; r < h; r++ {
			row := b.wqkv.Row(r)
			for c, v := range wq.Row(r) {
				row[c] = T(v)
			}
			for c, v := range wk.Row(r) {
				row[h+c] = T(v)
			}
			for c, v := range wv.Row(r) {
				row[2*h+c] = T(v)
			}
		}
		b.wo = k.weight(blk.att.WO.Value)
		b.ln1g = k.weight(blk.ln1.Gain.Value).Data
		b.ln1b = k.weight(blk.ln1.Bias.Value).Data
		b.ln1eps = blk.ln1.Eps
		b.ln2g = k.weight(blk.ln2.Gain.Value).Data
		b.ln2b = k.weight(blk.ln2.Bias.Value).Data
		b.ln2eps = blk.ln2.Eps
		b.w1 = k.weight(blk.ffn.L1.W.Value)
		b.b1 = k.weight(blk.ffn.L1.B.Value).Data
		b.w2 = k.weight(blk.ffn.L2.W.Value)
		b.b2 = k.weight(blk.ffn.L2.B.Value).Data
	}
	return s
}
