//go:build !amd64

package tensor

// QKScores8 computes dst[j] = Σ_{c<8} q[c] * k[j*stride+c] — one
// attention query row's raw scores against n strided key rows for the
// head width dk=8. Portable fallback for the packed-SSE amd64 kernel.
func QKScores8(dst, q, k []float32, stride int) {
	q = q[:8]
	for j := range dst {
		krow := k[j*stride : j*stride+8]
		var dot float32
		for c, qv := range q {
			dot += float32(qv * krow[c])
		}
		dst[j] = dot
	}
}

// AttnV8 accumulates out[c] += w[j] * v[j*stride+c] for c < 8 over
// every weight — one attention output row's value mix for head width
// dk=8. Portable fallback for the packed-SSE amd64 kernel; the
// float32 conversion keeps Go from fusing the product and the add
// into an FMA, which the SSE kernel does not do.
func AttnV8(out, w, v []float32, stride int) {
	out = out[:8]
	for j, wv := range w {
		vrow := v[j*stride : j*stride+8]
		for c, vv := range vrow {
			out[c] += float32(wv * vv)
		}
	}
}

func softmax32(row []float32) { softmax32Generic(row) }
