//go:build amd64

package tensor

// QKScores8 computes dst[j] = Σ_{c<8} q[c] * k[j*stride+c] — one
// attention query row's raw scores against n strided key rows for the
// head width dk=8 (the paper model's h=64, m=8 shape). len(k) must be
// at least (len(dst)-1)*stride+8 and len(q) at least 8. The packed dot
// pairs lanes (0+4, 1+5, ...) before the horizontal fold, so the sum
// order differs from the scalar loop by O(1e-7) — inside the float32
// path's 1e-4 contract. Implemented in attn32_amd64.s.
//
//go:noescape
func QKScores8(dst, q, k []float32, stride int)

// AttnV8 accumulates out[c] += w[j] * v[j*stride+c] for c < 8 over
// every weight — one attention output row's value mix for head width
// dk=8. len(out) must be at least 8 and len(v) at least
// (len(w)-1)*stride+8. Per output lane the adds ascend j exactly like
// the scalar loop. Implemented in attn32_amd64.s.
//
//go:noescape
func AttnV8(out, w, v []float32, stride int)

// softmax32 is the SSE2 kernel behind Softmax32; len(row) must be a
// multiple of 4. Implemented in attn32_amd64.s.
//
//go:noescape
func softmax32(row []float32)
