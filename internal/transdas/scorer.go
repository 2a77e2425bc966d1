package transdas

import (
	"math"

	"github.com/ucad/ucad/internal/nn"
	"github.com/ucad/ucad/internal/tensor"
)

// Scorer is the batch-first scoring surface of Trans-DAS: it pads a
// micro-batch of variable-length contexts to the batch maximum with the
// PadKey, runs one masked forward pass through stacked matrices, and
// reads out one similarity row per context (Eq. 10).
//
// The kernel is tape-free: it records no autodiff graph and reuses a
// set of scratch matrices across calls, so a warm Scorer performs zero
// heap allocations per batch beyond result rows the caller did not
// provide. Padded positions embed to the zero vector and are excluded
// from attention by an additive -1e9 mask, whose softmax terms are
// exactly 0.0 in both precisions — so every context's scores are
// bit-independent of batch composition and padding length, and the
// float64 scores agree with the tape-based reference forward to
// float64 round-off.
//
// A Scorer is not safe for concurrent use; create one per goroutine.
// Scorers read the model's per-generation weight snapshot (see
// precision.go), so a Scorer remains valid across in-place fine-tuning
// as long as scoring and training are externally serialized, e.g. by
// detect.Online's lock.
type Scorer struct {
	m *Model

	// kind mask, cached per padded length: session scans score growing
	// prefixes whose padded length changes chunk to chunk, so a
	// single-length cache would rebuild the mask almost every pass.
	// Bounded by cfg.Window distinct lengths.
	mask  *tensor.Matrix
	masks map[int]*tensor.Matrix

	// Per-pass geometry: kernel slot -> batch index, and each slot's
	// real (truncated) context.
	slots []int
	ctxs  [][]int
	lens  []int

	// Forward-pass scratch, one set per precision, allocated only for
	// the precision the model scores in.
	f64 pass[float64]
	f32 pass[float32]

	// rank scratch and single-item wrapper headers. sims rows are carved
	// from simsSlab — one arena the rank paths reuse call over call, so
	// a warm RankBatch allocates nothing for its similarity rows.
	sims     [][]float64
	simsSlab []float64
	ranks    []int
	oneCtx   [1][]int
	oneOut   [1][]float64
}

// NewScorer returns a Scorer over the model's current parameters.
func (m *Model) NewScorer() *Scorer { return &Scorer{m: m} }

// scorer fetches a pooled Scorer for the single-item wrapper API.
func (m *Model) scorer() *Scorer { return m.scorers.Get().(*Scorer) }

// ScoreBatch scores every context in one batched forward pass and
// returns one cfg.Vocab-length similarity row per context, in order:
// row b holds sim[k] = sigmoid(O_last · M(k)) for context b (Eq. 10),
// with sim[0] (the k0 slot) always 0. Contexts longer than cfg.Window
// are truncated to their most recent Window keys; an empty context
// yields an all-zero row (no contextual intent to compare against).
//
// The returned rows are carved from the Scorer's scratch arena: they
// are valid until the next call on this Scorer. Callers that retain
// rows across calls must use ScoreBatchInto with their own buffers.
func (s *Scorer) ScoreBatch(contexts [][]int) [][]float64 {
	return s.ScoreBatchInto(s.arenaSims(len(contexts)), contexts)
}

// arenaSims sizes s.sims to n rows of cfg.Vocab floats carved from the
// Scorer's flat arena slab, reusing it call over call. Rows handed out
// this way are owned by the Scorer — safe for the rank paths and for
// ScoreBatch, whose results are consumed before the next call; the
// pooled single-item wrappers (ScoreNextInto with a nil buffer) must
// keep allocating because their row outlives the pooled Scorer.
func (s *Scorer) arenaSims(n int) [][]float64 {
	vocab := s.m.cfg.Vocab
	need := n * vocab
	if cap(s.simsSlab) < need {
		s.simsSlab = make([]float64, need)
	}
	slab := s.simsSlab[:need]
	if cap(s.sims) >= n {
		s.sims = s.sims[:n]
	} else {
		s.sims = make([][]float64, n)
	}
	for i := range s.sims {
		s.sims[i] = slab[i*vocab : (i+1)*vocab : (i+1)*vocab]
	}
	return s.sims
}

// ScoreBatchInto is ScoreBatch writing into dst: it reuses dst's
// backing array and any row with capacity >= cfg.Vocab, allocating only
// what is missing, and returns dst resized to len(contexts).
func (s *Scorer) ScoreBatchInto(dst [][]float64, contexts [][]int) [][]float64 {
	vocab := s.m.cfg.Vocab
	if cap(dst) >= len(contexts) {
		dst = dst[:len(contexts)]
	} else {
		dst = append(dst[:0], make([][]float64, len(contexts))...)
	}
	for b := range dst {
		if cap(dst[b]) >= vocab {
			dst[b] = dst[b][:vocab]
			for i := range dst[b] {
				dst[b][i] = 0
			}
		} else {
			dst[b] = make([]float64, vocab)
		}
	}

	// Truncate to the window, drop empty contexts from the kernel (their
	// rows stay all-zero) and find the padded length.
	window := s.m.cfg.Window
	s.slots, s.ctxs, s.lens = s.slots[:0], s.ctxs[:0], s.lens[:0]
	maxLen := 0
	for b, ctx := range contexts {
		if len(ctx) > window {
			ctx = ctx[len(ctx)-window:]
		}
		if len(ctx) == 0 {
			continue
		}
		s.slots = append(s.slots, b)
		s.ctxs = append(s.ctxs, ctx)
		s.lens = append(s.lens, len(ctx))
		if len(ctx) > maxLen {
			maxLen = len(ctx)
		}
	}
	if len(s.slots) == 0 {
		return dst
	}

	// Score-cache lookup: hits copy their memoized row straight into dst
	// and leave the kernel; the remaining misses are compacted in place
	// so the forward pass pads only to the widest *miss*. The generation
	// is captured before scoring — if a weight change lands mid-batch
	// (impossible under detect.Online's lock, but cheap to defend
	// against), the insertions below are stamped already-stale and can
	// never be served.
	cache := s.m.scoreCache.Load()
	var cacheGen uint64
	if cache != nil {
		cacheGen = cache.Gen()
		w := 0
		maxLen = 0
		for i := range s.slots {
			if cache.GetInto(dst[s.slots[i]], s.ctxs[i]) {
				continue
			}
			s.slots[w], s.ctxs[w], s.lens[w] = s.slots[i], s.ctxs[i], s.lens[i]
			if s.lens[w] > maxLen {
				maxLen = s.lens[w]
			}
			w++
		}
		s.slots, s.ctxs, s.lens = s.slots[:w], s.ctxs[:w], s.lens[:w]
		if w == 0 {
			return dst
		}
	}

	// Cache misses run the forward pass in the model's scoring
	// precision.
	if m := s.m; m.prec32.Load() {
		score(s, &s.f32, loadSnapshot(m, &m.snap32, kernels32), dst, maxLen)
	} else {
		score(s, &s.f64, loadSnapshot(m, &m.snap64, kernels64), dst, maxLen)
	}
	if cache != nil {
		for i, b := range s.slots {
			cache.PutGen(s.ctxs[i], dst[b], cacheGen)
		}
	}
	return dst
}

// RankBatch returns, for each (contexts[b], keys[b]) pair, the 1-based
// similarity rank of keys[b] given its context — the batched RankOf. A
// PadKey or out-of-vocabulary key ranks last (Vocab).
func (s *Scorer) RankBatch(contexts [][]int, keys []int) []int {
	return s.RankBatchInto(nil, contexts, keys)
}

// RankBatchInto is RankBatch writing ranks into dst (grown as needed).
// len(keys) must equal len(contexts).
func (s *Scorer) RankBatchInto(dst []int, contexts [][]int, keys []int) []int {
	if len(keys) != len(contexts) {
		panic("transdas: RankBatch contexts and keys length mismatch")
	}
	if cap(dst) >= len(contexts) {
		dst = dst[:len(contexts)]
	} else {
		dst = append(dst[:0], make([]int, len(contexts))...)
	}
	sims := s.ScoreBatchInto(s.arenaSims(len(contexts)), contexts)
	for b, row := range sims {
		dst[b] = rankIn(row, keys[b])
	}
	return dst
}

// rankIn computes the 1-based rank of key within sims (see RankOf).
func rankIn(sims []float64, key int) int {
	if key <= 0 || key >= len(sims) {
		return len(sims)
	}
	target := sims[key]
	rank := 1
	for k := 1; k < len(sims); k++ {
		if k != key && sims[k] > target {
			rank++
		}
	}
	return rank
}

// maskFor returns the kind mask for padded length L, built once per
// distinct length and cached: session scans alternate padded lengths
// chunk to chunk, and the masks are pure functions of (kind, L).
func (s *Scorer) maskFor(L int) *tensor.Matrix {
	if m, ok := s.masks[L]; ok {
		return m
	}
	if s.masks == nil {
		s.masks = make(map[int]*tensor.Matrix)
	}
	m := nn.BuildMask(s.m.cfg.Mask, L)
	s.masks[L] = m
	return m
}

// score runs the forward pass over the slotted contexts padded to L
// keys each and writes each one's Eq. 10 read-out into its dst row:
// sim[k] = sigmoid(O_last · M(k)), with the embedding table doubling as
// the read-out table.
func score[T elem](s *Scorer, p *pass[T], sn *snapshot[T], dst [][]float64, L int) {
	out := forward(s, p, sn, L)
	for i, b := range s.slots {
		last := out.Row(i)
		sims := dst[b]
		for k := 1; k < len(sims); k++ {
			row := sn.emb.Row(k)
			var dot T
			for j, v := range last {
				dot += v * row[j]
			}
			sims[k] = 1 / (1 + math.Exp(-float64(dot)))
		}
	}
}

// pass is one precision's forward-pass scratch, grown on demand and
// reused across calls.
type pass[T elem] struct {
	x      *mat[T] // activations, (B·L) x h
	qkv    *mat[T] // fused Q|K|V projections, (B·L) x 3h
	att    *mat[T] // concatenated head outputs, (B·L) x h
	sub    *mat[T] // sub-layer output (attention proj / FFN), (B·L) x h
	ffnH   *mat[T] // FFN inner activations, (B·L) x h
	scores []T     // one L x lp attention-score block

	// Compact last-block scratch, one row per sequence (B x h): the
	// read-out consumes only each sequence's final position, so the last
	// block computes queries, FFN and norms for those rows alone.
	attL, subL, ffnL, outL *mat[T]
}

// forward runs the tape-free stacked forward pass over the slotted
// contexts padded to L keys each, reading the weight snapshot sn, and
// returns a compact B x h matrix whose row i is the final block's
// output at sequence i's last real position — the only row Eq. 10's
// read-out consumes.
func forward[T elem](s *Scorer, p *pass[T], sn *snapshot[T], L int) *mat[T] {
	h := s.m.cfg.Hidden
	B := len(s.slots)
	rows := B * L

	p.x = ensureMat(p.x, rows, h)
	p.qkv = ensureMat(p.qkv, rows, 3*h)
	p.att = ensureMat(p.att, rows, h)
	p.sub = ensureMat(p.sub, rows, h)
	p.ffnH = ensureMat(p.ffnH, rows, h)
	lp := (L + 3) &^ 3 // score rows padded for tensor.Softmax32
	if cap(p.scores) < L*lp {
		p.scores = make([]T, L*lp)
	}
	p.scores = p.scores[:L*lp]
	s.mask = s.maskFor(L)

	// Embedding (Eq. 1): PadKey, negative and out-of-vocabulary keys map
	// to the zero vector, exactly as nn.Embedding.Lookup; padded tail
	// positions are zero too.
	table := sn.emb
	pad := s.m.emb.PadKey
	for i, ctx := range s.ctxs {
		for t := 0; t < L; t++ {
			row := p.x.Row(i*L + t)
			if t >= len(ctx) {
				clear(row)
				continue
			}
			key := ctx[t]
			if key == pad || key < 0 || key >= table.Rows {
				clear(row)
			} else {
				copy(row, table.Row(key))
			}
		}
	}
	if sn.pos != nil {
		// Positional ablation variant: add position t's embedding to
		// every sequence's row t.
		for i := 0; i < B; i++ {
			for t := 0; t < L; t++ {
				row := p.x.Row(i*L + t)
				for c, v := range sn.pos.Row(t) {
					row[c] += v
				}
			}
		}
	}

	mm := sn.k.matMul
	for bi := range sn.blocks[:len(sn.blocks)-1] {
		blk := &sn.blocks[bi]
		attention(s, p, sn.k, blk, B, L, false)
		// Eq. 5 around attention: x = LN1(x + MH(x)); dropout is the
		// identity at inference.
		addInPlace(p.x, p.sub)
		layerNormInPlace(p.x, blk.ln1g, blk.ln1b, blk.ln1eps)
		// Eq. 7 FFN, then Eq. 5 again: x = LN2(x + FFN(x)).
		mm(p.ffnH, p.x, blk.w1)
		biasReLUInPlace(p.ffnH, blk.b1)
		mm(p.sub, p.ffnH, blk.w2)
		addBiasInPlace(p.sub, blk.b2)
		addInPlace(p.x, p.sub)
		layerNormInPlace(p.x, blk.ln2g, blk.ln2b, blk.ln2eps)
	}

	// Last block, compact: every position still contributes keys and
	// values, but only each sequence's last real position is queried,
	// normalized and fed through the FFN — the rest would be discarded
	// by the read-out.
	blk := &sn.blocks[len(sn.blocks)-1]
	p.attL = ensureMat(p.attL, B, h)
	p.subL = ensureMat(p.subL, B, h)
	p.ffnL = ensureMat(p.ffnL, B, h)
	p.outL = ensureMat(p.outL, B, h)
	attention(s, p, sn.k, blk, B, L, true)
	for i := 0; i < B; i++ {
		lastRow := p.x.Row(i*L + s.lens[i] - 1)
		out := p.outL.Row(i)
		sub := p.subL.Row(i)
		for c := range out {
			out[c] = lastRow[c] + sub[c]
		}
	}
	layerNormInPlace(p.outL, blk.ln1g, blk.ln1b, blk.ln1eps)
	mm(p.ffnL, p.outL, blk.w1)
	biasReLUInPlace(p.ffnL, blk.b1)
	mm(p.subL, p.ffnL, blk.w2)
	addBiasInPlace(p.subL, blk.b2)
	addInPlace(p.outL, p.subL)
	layerNormInPlace(p.outL, blk.ln2g, blk.ln2b, blk.ln2eps)
	return p.outL
}

// attention computes one masked multi-head attention layer (Eqs. 2–4)
// over the B stacked L-row sequences in p.x, leaving the projected
// output in p.sub. Scores never cross sequence boundaries, and key
// columns beyond a sequence's real length get exactly zero weight.
// With last set, only each sequence's final real position is queried
// (all positions still serve as keys and values) and the projected
// B x h output lands in p.subL instead.
func attention[T elem](s *Scorer, p *pass[T], k *kernels[T], blk *snapBlock[T], B, L int, last bool) {
	h := blk.wo.Rows
	heads := s.m.cfg.Heads
	dk := h / heads
	scale := T(1 / math.Sqrt(float64(h)))
	masked := T(nn.MaskedScore)

	// One fused projection pass: Q, K and V share the input, so the
	// snapshot's column-wise concat of their weights computes all three
	// with a single sweep over the activations. Each output element is
	// the same k-ascending dot product as three separate matmuls.
	k.matMul(p.qkv, p.x, blk.wqkv)
	out2 := p.att
	if last {
		out2 = p.attL
	}
	clear(out2.Data)

	// dk=8 is the paper model's head width (h=64, m=8); where the
	// precision has packed per-row score and value-mix kernels it uses
	// them, otherwise the scalar loops. Score rows are padded with
	// masked scores to a multiple of 4 for the packed softmax.
	lp := (L + 3) &^ 3
	cols := p.qkv.Cols
	packed := dk == 8 && k.qkScores8 != nil
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
				// Score block: scaled dot products plus the kind mask,
				// with padded key columns forced to the masked score.
				qrow := p.qkv.Row(base + i)[qlo : qlo+dk]
				srow := p.scores[i*lp : (i+1)*lp]
				mrow := s.mask.Row(i)
				if packed {
					k.qkScores8(srow[:n], qrow, p.qkv.Data[base*cols+klo:], cols)
					for j := 0; j < n; j++ {
						if mrow[j] != 0 {
							srow[j] = masked
						} else {
							srow[j] *= scale
						}
					}
				} else {
					// Kind-masked pairs skip the dot entirely: their
					// softmax term is zero either way.
					for j := 0; j < n; j++ {
						if mrow[j] != 0 {
							srow[j] = masked
							continue
						}
						krow := p.qkv.Row(base + j)[klo : klo+dk]
						var dot T
						for c, qv := range qrow {
							dot += qv * krow[c]
						}
						srow[j] = dot * scale
					}
				}
				for j := n; j < lp; j++ {
					srow[j] = masked
				}
				k.softmax(srow)
				// Weighted read-out into this head's output stripe.
				// Weights past n are exactly 0 after the masked softmax;
				// srow[:n] drops them up front.
				var out []T
				if last {
					out = out2.Row(b)[qlo : qlo+dk]
				} else {
					out = out2.Row(base + i)[qlo : qlo+dk]
				}
				if packed {
					k.attnV8(out, srow[:n], p.qkv.Data[base*cols+vlo:], cols)
				} else {
					for j, w := range srow[:n] {
						if w == 0 {
							continue
						}
						vrow := p.qkv.Row(base + j)[vlo : vlo+dk]
						for c, vv := range vrow {
							out[c] += w * vv
						}
					}
				}
			}
		}
	}
	if last {
		k.matMul(p.subL, out2, blk.wo)
	} else {
		k.matMul(p.sub, out2, blk.wo)
	}
}

// ensureMat resizes m to rows x cols, reusing its backing array when
// large enough. Contents are unspecified; callers overwrite fully.
func ensureMat[T elem](m *mat[T], rows, cols int) *mat[T] {
	need := rows * cols
	if m == nil || cap(m.Data) < need {
		return newMat[T](rows, cols)
	}
	m.Data = m.Data[:need]
	m.Rows, m.Cols = rows, cols
	return m
}

// addInPlace accumulates dst += src elementwise.
func addInPlace[T elem](dst, src *mat[T]) {
	for i, v := range src.Data {
		dst.Data[i] += v
	}
}

// layerNormInPlace applies Eq. 6 row-wise: x = g ⊙ (x-μ)/√(σ²+ε) + b,
// with the same operation order as the tape path (NormalizeRows, gain,
// bias) so float64 results match it to the bit. Mean and variance
// accumulate in float64 in both precisions (the reductions are where
// float32 error would compound; the O(h) cost is negligible next to
// the matmuls).
func layerNormInPlace[T elem](x *mat[T], gain, bias []T, eps float64) {
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
		inv := T(1 / math.Sqrt(va+eps))
		muT := T(mu)
		for c, v := range row {
			row[c] = (v-muT)*inv*gain[c] + bias[c]
		}
	}
}

// biasReLUInPlace applies x = max(0, x + b) row-wise (Eq. 7's first
// stage after the matmul).
func biasReLUInPlace[T elem](x *mat[T], b []T) {
	for r := 0; r < x.Rows; r++ {
		row := x.Row(r)
		for c := range row {
			row[c] = max(0, row[c]+b[c])
		}
	}
}

// addBiasInPlace applies x = x + b row-wise.
func addBiasInPlace[T elem](x *mat[T], b []T) {
	for r := 0; r < x.Rows; r++ {
		row := x.Row(r)
		for c := range row {
			row[c] += b[c]
		}
	}
}
