package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestMatMul32AsmMatchesGeneric pins MatMulInto32 to the portable
// kernel bitwise with the dispatch forced each way: the AVX kernel
// (when the CPU has it) and the generic fallback a non-AVX amd64 CPU
// gets. The shapes cover every column count 1-70 (16-lane body, 8-lane
// step and scalar tail), inner dimensions off a multiple of 4 (the Go
// k-tail) and all-zero quartets (the skip).
func TestMatMul32AsmMatchesGeneric(t *testing.T) {
	kernels := map[string]func(dst, a, b *Matrix32){"generic": matMul32Generic}
	if hasAVX() {
		kernels["avx"] = matMul32AVX
	} else {
		t.Log("CPU has no AVX: only the generic dispatch is checked")
	}
	saved := matMul32
	defer func() { matMul32 = saved }()

	rng := rand.New(rand.NewSource(7))
	for name, kernel := range kernels {
		matMul32 = kernel
		for bc := 1; bc <= 70; bc++ {
			for _, n := range []int{1, 3, 4, 6, 8, 13, 64, 67} {
				ar := 1 + (bc+n)%6
				a := NewMatrix32(ar, n)
				b := NewMatrix32(n, bc)
				for i := range a.Data {
					a.Data[i] = float32(rng.NormFloat64())
				}
				// Zero a few full quartets (one with -0) to exercise the skip.
				for k := 0; k+4 <= n; k += 8 {
					for _, row := range []int{0, ar - 1} {
						copy(a.Row(row)[k:k+4], []float32{0, float32(math.Copysign(0, -1)), 0, 0})
					}
				}
				for i := range b.Data {
					b.Data[i] = float32(rng.NormFloat64())
				}
				got := NewMatrix32(ar, bc)
				MatMulInto32(got, a, b)
				want := NewMatrix32(ar, bc)
				matMul32Generic(want, a, b)
				for i := range want.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
						t.Fatalf("%s %dx%dx%d: elem %d: %v != generic %v", name, ar, n, bc, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}
