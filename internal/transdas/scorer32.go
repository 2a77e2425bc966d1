package transdas

import (
	"fmt"
	"math"

	"github.com/ucad/ucad/internal/tensor"
)

// Precision selects the scoring kernel data type. Training and the
// property-tested reference path are always float64; float32 is an
// opt-in inference fast path that halves the memory traffic of the
// scoring matmuls and, on amd64, runs the matmuls, the attention
// products and the softmax through packed kernels (AVX when the CPU
// has it, SSE2 otherwise) the scalar float64 path cannot use.
type Precision int

const (
	// PrecisionFloat64 scores through the double-precision kernel — the
	// reference path, pinned to the tape forward within 1e-9.
	PrecisionFloat64 Precision = iota
	// PrecisionFloat32 scores through the single-precision kernel built
	// from a frozen weight snapshot; scores agree with the reference
	// within 1e-4 and verdicts/ranks are stable on the paper's
	// workloads (see the float32 equivalence suite).
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

// snapshot32 is a frozen single-precision copy of the model weights,
// converted once per weight generation (checkpoint load, fine-tune
// round, hot swap) and shared read-only by every Scorer. Freezing the
// conversion keeps the per-batch cost at zero and precomputes the
// fused Q|K|V projection concat that the float64 path re-copies on
// every attention call.
type snapshot32 struct {
	gen uint64
	// emb doubles as the Eq. 1 embedding table and the Eq. 10 read-out
	// table.
	emb    *tensor.Matrix32
	pos    *tensor.Matrix32 // nil unless cfg.Positional
	blocks []snapBlock32
}

// snapBlock32 is one attention block's converted weights.
type snapBlock32 struct {
	wqkv                   *tensor.Matrix32 // h x 3h fused Q|K|V projection
	wo                     *tensor.Matrix32
	ln1g, ln1b, ln2g, ln2b []float32
	ln1eps, ln2eps         float64
	w1                     *tensor.Matrix32
	b1                     []float32
	w2                     *tensor.Matrix32
	b2                     []float32
}

// snapshot32 returns the single-precision weight snapshot for the
// current weight generation, rebuilding it at most once per generation
// (double-checked under snapMu). Safe for concurrent scorers; callers
// must externally serialize against weight mutation exactly as float64
// scoring already is.
func (m *Model) snapshot32() *snapshot32 {
	gen := m.weightGen.Load()
	if s := m.snap32.Load(); s != nil && s.gen == gen {
		return s
	}
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	gen = m.weightGen.Load()
	if s := m.snap32.Load(); s != nil && s.gen == gen {
		return s
	}
	s := m.buildSnapshot32(gen)
	m.snap32.Store(s)
	return s
}

// buildSnapshot32 converts the current weights. Caller holds snapMu.
func (m *Model) buildSnapshot32(gen uint64) *snapshot32 {
	h := m.cfg.Hidden
	s := &snapshot32{gen: gen, emb: tensor.Matrix32From(m.emb.Table.Value)}
	if m.pos != nil {
		s.pos = tensor.Matrix32From(m.pos.Value)
	}
	s.blocks = make([]snapBlock32, len(m.blocks))
	for i, blk := range m.blocks {
		b := &s.blocks[i]
		b.wqkv = tensor.NewMatrix32(h, 3*h)
		wq, wk, wv := blk.att.WQ.Value, blk.att.WK.Value, blk.att.WV.Value
		for r := 0; r < h; r++ {
			row := b.wqkv.Row(r)
			for c, v := range wq.Row(r) {
				row[c] = float32(v)
			}
			for c, v := range wk.Row(r) {
				row[h+c] = float32(v)
			}
			for c, v := range wv.Row(r) {
				row[2*h+c] = float32(v)
			}
		}
		b.wo = tensor.Matrix32From(blk.att.WO.Value)
		b.ln1g = rowTo32(blk.ln1.Gain.Value.Data)
		b.ln1b = rowTo32(blk.ln1.Bias.Value.Data)
		b.ln1eps = blk.ln1.Eps
		b.ln2g = rowTo32(blk.ln2.Gain.Value.Data)
		b.ln2b = rowTo32(blk.ln2.Bias.Value.Data)
		b.ln2eps = blk.ln2.Eps
		b.w1 = tensor.Matrix32From(blk.ffn.L1.W.Value)
		b.b1 = rowTo32(blk.ffn.L1.B.Value.Data)
		b.w2 = tensor.Matrix32From(blk.ffn.L2.W.Value)
		b.b2 = rowTo32(blk.ffn.L2.B.Value.Data)
	}
	return s
}

func rowTo32(src []float64) []float32 {
	out := make([]float32, len(src))
	for i, v := range src {
		out[i] = float32(v)
	}
	return out
}

// forward32 is forward in single precision: the same tape-free stacked
// pass over the slotted contexts, reading the frozen snapshot instead
// of the live float64 weights, with the identical operation order —
// padded positions still embed to zero and masked softmax terms are
// still exactly 0, so batch composition cannot perturb scores in
// either precision.
func (s *Scorer) forward32(sn *snapshot32, L int) *tensor.Matrix32 {
	m := s.m
	h := m.cfg.Hidden
	B := len(s.slots)
	rows := B * L

	s.x32 = ensureMat32(s.x32, rows, h)
	s.qkv32 = ensureMat32(s.qkv32, rows, 3*h)
	s.att32 = ensureMat32(s.att32, rows, h)
	s.sub32 = ensureMat32(s.sub32, rows, h)
	s.ffnH32 = ensureMat32(s.ffnH32, rows, h)
	lp := (L + 3) &^ 3 // score rows padded for tensor.Softmax32
	if cap(s.scores32) < L*lp {
		s.scores32 = make([]float32, L*lp)
	}
	s.scores32 = s.scores32[:L*lp]
	s.mask = s.maskFor(L)

	// Embedding (Eq. 1), zero rows for pad/OOV and padded tails.
	table := sn.emb
	pad := m.emb.PadKey
	for i, ctx := range s.ctxs {
		for t := 0; t < L; t++ {
			row := s.x32.Row(i*L + t)
			if t >= len(ctx) {
				zeroRow32(row)
				continue
			}
			key := ctx[t]
			if key == pad || key < 0 || key >= table.Rows {
				zeroRow32(row)
			} else {
				copy(row, table.Row(key))
			}
		}
	}
	if sn.pos != nil {
		for i := 0; i < B; i++ {
			for t := 0; t < L; t++ {
				row := s.x32.Row(i*L + t)
				for c, p := range sn.pos.Row(t) {
					row[c] += p
				}
			}
		}
	}

	for bi := 0; bi < len(sn.blocks)-1; bi++ {
		blk := &sn.blocks[bi]
		s.attention32(blk, B, L, false)
		add32InPlace(s.x32, s.sub32)
		layerNorm32InPlace(s.x32, blk.ln1g, blk.ln1b, blk.ln1eps)
		tensor.MatMulInto32(s.ffnH32, s.x32, blk.w1)
		biasReLU32InPlace(s.ffnH32, blk.b1)
		tensor.MatMulInto32(s.sub32, s.ffnH32, blk.w2)
		addBias32InPlace(s.sub32, blk.b2)
		add32InPlace(s.x32, s.sub32)
		layerNorm32InPlace(s.x32, blk.ln2g, blk.ln2b, blk.ln2eps)
	}

	// Compact last block (see forward): only each sequence's final real
	// position is queried, normalized and fed through the FFN.
	blk := &sn.blocks[len(sn.blocks)-1]
	s.attL32 = ensureMat32(s.attL32, B, h)
	s.subL32 = ensureMat32(s.subL32, B, h)
	s.ffnL32 = ensureMat32(s.ffnL32, B, h)
	s.outL32 = ensureMat32(s.outL32, B, h)
	s.attention32(blk, B, L, true)
	for i := 0; i < B; i++ {
		lastRow := s.x32.Row(i*L + s.lens[i] - 1)
		out := s.outL32.Row(i)
		sub := s.subL32.Row(i)
		for c := range out {
			out[c] = lastRow[c] + sub[c]
		}
	}
	layerNorm32InPlace(s.outL32, blk.ln1g, blk.ln1b, blk.ln1eps)
	tensor.MatMulInto32(s.ffnL32, s.outL32, blk.w1)
	biasReLU32InPlace(s.ffnL32, blk.b1)
	tensor.MatMulInto32(s.subL32, s.ffnL32, blk.w2)
	addBias32InPlace(s.subL32, blk.b2)
	add32InPlace(s.outL32, s.subL32)
	layerNorm32InPlace(s.outL32, blk.ln2g, blk.ln2b, blk.ln2eps)
	return s.outL32
}

// attention32 is attention in single precision, reading the snapshot's
// precomputed fused Q|K|V weights. The kind mask is shared with the
// float64 path (it is only consulted as zero/nonzero).
func (s *Scorer) attention32(blk *snapBlock32, B, L int, last bool) {
	h := blk.wo.Rows
	heads := s.m.cfg.Heads
	dk := h / heads
	scale := float32(1 / math.Sqrt(float64(h)))

	tensor.MatMulInto32(s.qkv32, s.x32, blk.wqkv)
	out2 := s.att32
	if last {
		out2 = s.attL32
	}
	out2.Zero()

	// dk=8 is the paper model's head width (h=64, m=8); it gets the
	// packed per-row score and value-mix kernels, other widths the
	// scalar loops. Score rows are padded with masked scores to a
	// multiple of 4 for the packed softmax.
	lp := (L + 3) &^ 3
	cols := s.qkv32.Cols
	fast := dk == 8
	for head := 0; head < heads; head++ {
		qlo := head * dk
		klo, vlo := h+qlo, 2*h+qlo
		for b := 0; b < B; b++ {
			base := b * L
			n := s.lens[b]
			lo := 0
			if last {
				lo = n - 1
			}
			for i := lo; i < n || (!last && i < L); i++ {
				qrow := s.qkv32.Row(base + i)[qlo : qlo+dk]
				srow := s.scores32[i*lp : (i+1)*lp]
				mrow := s.mask.Row(i)
				if fast {
					tensor.QKScores8(srow[:n], qrow, s.qkv32.Data[base*cols+klo:], cols)
					for j := 0; j < n; j++ {
						if mrow[j] != 0 {
							srow[j] = maskedScore32
						} else {
							srow[j] *= scale
						}
					}
				} else {
					for j := 0; j < n; j++ {
						if mrow[j] != 0 {
							srow[j] = maskedScore32
							continue
						}
						krow := s.qkv32.Row(base + j)[klo : klo+dk]
						var dot float32
						for c, qv := range qrow {
							dot += qv * krow[c]
						}
						srow[j] = dot * scale
					}
				}
				for j := n; j < lp; j++ {
					srow[j] = maskedScore32
				}
				tensor.Softmax32(srow)
				var out []float32
				if last {
					out = out2.Row(b)[qlo : qlo+dk]
				} else {
					out = out2.Row(base + i)[qlo : qlo+dk]
				}
				// Weights past n are exactly 0 after the masked
				// softmax; srow[:n] drops them up front.
				if fast {
					tensor.AttnV8(out, srow[:n], s.qkv32.Data[base*cols+vlo:], cols)
				} else {
					for j, w := range srow[:n] {
						if w == 0 {
							continue
						}
						vrow := s.qkv32.Row(base + j)[vlo : vlo+dk]
						for c, vv := range vrow {
							out[c] += w * vv
						}
					}
				}
			}
		}
	}
	if last {
		tensor.MatMulInto32(s.subL32, out2, blk.wo)
	} else {
		tensor.MatMulInto32(s.sub32, out2, blk.wo)
	}
}

// maskedScore32 is nn.MaskedScore in float32: -1e9 - max lies far
// below tensor.Softmax32's cutoff, so the weight is exactly 0.
const maskedScore32 = float32(-1e9)

// ensureMat32 resizes m to rows x cols, reusing its backing array when
// large enough. Contents are unspecified; callers overwrite fully.
func ensureMat32(m *tensor.Matrix32, rows, cols int) *tensor.Matrix32 {
	need := rows * cols
	if m == nil || cap(m.Data) < need {
		return tensor.NewMatrix32(rows, cols)
	}
	m.Data = m.Data[:need]
	m.Rows, m.Cols = rows, cols
	return m
}

func zeroRow32(row []float32) {
	for i := range row {
		row[i] = 0
	}
}

// add32InPlace accumulates dst += src elementwise.
func add32InPlace(dst, src *tensor.Matrix32) {
	for i, v := range src.Data {
		dst.Data[i] += v
	}
}

// layerNorm32InPlace applies Eq. 6 row-wise with float64 mean/variance
// accumulation (the reductions are where float32 error would compound;
// the O(h) cost is negligible next to the matmuls).
func layerNorm32InPlace(x *tensor.Matrix32, gain, bias []float32, eps float64) {
	nf := float64(x.Cols)
	for r := 0; r < x.Rows; r++ {
		row := x.Row(r)
		var mu float64
		for _, v := range row {
			mu += float64(v)
		}
		mu /= nf
		var va float64
		for _, v := range row {
			d := float64(v) - mu
			va += d * d
		}
		va /= nf
		inv := float32(1 / math.Sqrt(va+eps))
		mu32 := float32(mu)
		for c, v := range row {
			row[c] = (v-mu32)*inv*gain[c] + bias[c]
		}
	}
}

// biasReLU32InPlace applies x = max(0, x + b) row-wise.
func biasReLU32InPlace(x *tensor.Matrix32, b []float32) {
	for r := 0; r < x.Rows; r++ {
		row := x.Row(r)
		for c := range row {
			v := row[c] + b[c]
			if v < 0 {
				v = 0
			}
			row[c] = v
		}
	}
}

// addBias32InPlace applies x = x + b row-wise.
func addBias32InPlace(x *tensor.Matrix32, b []float32) {
	for r := 0; r < x.Rows; r++ {
		row := x.Row(r)
		for c := range row {
			row[c] += b[c]
		}
	}
}
