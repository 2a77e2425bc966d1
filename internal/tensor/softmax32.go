package tensor

import (
	"fmt"
	"math"
)

// Constants of the Cephes-style float32 exponential behind Softmax32.
// The polynomial kernel in attn32_amd64.s carries the same values as
// bit patterns; keep the two in step.
const (
	exp32Log2e = float32(1.44269504088896341)
	// ln2 split in two: exp32C1 has 9 significant bits, so n*exp32C1 is
	// exact for every |n| the cutoff admits, and exp32C2 carries the
	// remainder (ln2 = exp32C1 + exp32C2).
	exp32C1 = float32(0.693359375)
	exp32C2 = float32(-2.12194440e-4)
	// Degree-5 polynomial for (e^r - 1 - r)/r² on |r| <= ln2/2.
	exp32P0 = float32(1.9875691500e-4)
	exp32P1 = float32(1.3981999507e-3)
	exp32P2 = float32(8.3334519073e-3)
	exp32P3 = float32(4.1665795894e-2)
	exp32P4 = float32(1.6666665459e-1)
	exp32P5 = float32(5.0000001201e-1)
	// exp32Cutoff bounds the shifted scores whose exponential is
	// computed: below it the lane is forced to exactly 0. e^-87.3 is
	// just above the smallest normal float32, so every computed lane
	// stays normal and 2^n fits the exponent field.
	exp32Cutoff = float32(-87.3)
)

// Softmax32 normalizes row in place: row[i] = e^(row[i]-max) / Σ. It
// is the float32 attention softmax. len(row) must be a multiple of 4;
// callers pad a score row with a large negative score (such as the
// masked score) up to the next multiple.
//
// The exponential is a range-reduced polynomial, not libm: relative
// error at most 2e-7 against math.Exp over [-87, 0]. Any lane whose
// shifted score is below -87.3 is exactly 0, so masked and padded
// entries contribute exactly nothing to the sum or to a later
// weighted read-out, whatever the row length.
//
// On amd64 this runs an SSE2 kernel (the amd64 baseline); elsewhere
// it runs softmax32Generic. The two agree bitwise.
func Softmax32(row []float32) {
	if len(row)%4 != 0 {
		panic(fmt.Sprintf("tensor: softmax32 row length %d is not a multiple of 4", len(row)))
	}
	softmax32(row)
}

// softmax32Generic is the portable Softmax32. It does the SSE kernel's
// work lane for lane: element i belongs to lane i%4, the max and the
// sum are kept per lane and folded in the kernel's order, and the
// normalization is one division and a scale.
func softmax32Generic(row []float32) {
	if len(row) == 0 {
		return
	}
	m := [4]float32{row[0], row[1], row[2], row[3]}
	for i := 4; i < len(row); i += 4 {
		for l := range m {
			m[l] = maxps(m[l], row[i+l])
		}
	}
	maxv := maxps(maxps(m[0], m[2]), maxps(m[1], m[3]))
	var s [4]float32
	for i := 0; i < len(row); i += 4 {
		for l := range s {
			e := exp32(row[i+l] - maxv)
			row[i+l] = e
			s[l] += e
		}
	}
	inv := 1 / ((s[0] + s[2]) + (s[1] + s[3]))
	for i := range row {
		row[i] *= inv
	}
}

// maxps is one lane of the SSE MAXPS instruction: a unless b is larger.
func maxps(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}

// exp32 is one lane of the SSE kernel's exponential. Go may fuse x*y+z
// into a single FMA (on arm64, or on amd64 with GOAMD64=v3), which
// rounds once where the SSE kernel rounds twice; the explicit float32
// conversion around every product forces the separate rounding.
func exp32(d float32) float32 {
	if d < exp32Cutoff {
		return 0
	}
	// n = floor(d*log2e + 1/2): truncate, then step down when the
	// truncation rounded a negative value up.
	fx := float32(d*exp32Log2e) + 0.5
	n := float32(int32(fx))
	if n > fx {
		n--
	}
	r := d - float32(n*exp32C1)
	r -= float32(n * exp32C2)
	z := float32(r * r)
	y := float32(exp32P0*r) + exp32P1
	y = float32(y*r) + exp32P2
	y = float32(y*r) + exp32P3
	y = float32(y*r) + exp32P4
	y = float32(y*r) + exp32P5
	y = float32(y*z) + r + 1
	// 2^n, built by placing n+127 in the exponent field.
	return float32(y * math.Float32frombits(uint32(int32(n)+127)<<23))
}
