package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// randMat returns a float64 matrix with N(0,1) entries.
func randMat(rows, cols int, rng *rand.Rand) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// maxRelDiff64v32 compares a float32 result against the float64
// reference, scaled by the reference magnitude.
func maxRelDiff64v32(ref *Matrix, got *Matrix32) float64 {
	var worst float64
	for i, v := range ref.Data {
		d := math.Abs(v - float64(got.Data[i]))
		scale := math.Max(1, math.Abs(v))
		if r := d / scale; r > worst {
			worst = r
		}
	}
	return worst
}

func TestMatrix32From(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randMat(3, 5, rng)
	a32 := Matrix32From(a)
	if a32.Rows != 3 || a32.Cols != 5 {
		t.Fatalf("shape %dx%d", a32.Rows, a32.Cols)
	}
	for i, v := range a.Data {
		if a32.Data[i] != float32(v) {
			t.Fatalf("element %d: %v != float32(%v)", i, a32.Data[i], v)
		}
	}
}

func TestMatMulInto32MatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Sweep shapes that exercise every blocking path: row remainders
	// 0..3 of the 4-row kernel and k remainders 0..3 of the quartet loop.
	for _, rows := range []int{1, 2, 3, 4, 5, 7, 8, 13} {
		for _, inner := range []int{1, 3, 4, 6, 8, 17} {
			for _, cols := range []int{1, 2, 5, 16} {
				a := randMat(rows, inner, rng)
				b := randMat(inner, cols, rng)
				ref := NewMatrix(rows, cols)
				MatMulInto(ref, a, b)
				got := NewMatrix32(rows, cols)
				MatMulInto32(got, Matrix32From(a), Matrix32From(b))
				if d := maxRelDiff64v32(ref, got); d > 1e-5 {
					t.Fatalf("(%dx%d)·(%dx%d): rel diff %g", rows, inner, inner, cols, d)
				}
			}
		}
	}
}

func TestMatMulInto32SkipsZeroRows(t *testing.T) {
	// Padded (all-zero) activation rows must produce exactly zero output
	// — the float32 kernel keeps the float64 kernel's zero-quartet skip.
	rng := rand.New(rand.NewSource(3))
	a := randMat(6, 8, rng)
	for k := 0; k < 8; k++ {
		a.Set(2, k, 0)
		a.Set(5, k, 0)
	}
	b := randMat(8, 4, rng)
	got := NewMatrix32(6, 4)
	MatMulInto32(got, Matrix32From(a), Matrix32From(b))
	for _, r := range []int{2, 5} {
		for _, v := range got.Row(r) {
			if v != 0 {
				t.Fatalf("zero input row %d produced nonzero output %v", r, v)
			}
		}
	}
}

func TestMatMulInto32OverwritesDst(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, b := randMat(4, 4, rng), randMat(4, 4, rng)
	got := NewMatrix32(4, 4)
	for i := range got.Data {
		got.Data[i] = 42 // stale scratch contents
	}
	MatMulInto32(got, Matrix32From(a), Matrix32From(b))
	ref := NewMatrix(4, 4)
	MatMulInto(ref, a, b)
	if d := maxRelDiff64v32(ref, got); d > 1e-5 {
		t.Fatalf("stale dst leaked into result: rel diff %g", d)
	}
}

func TestBatchMatMulNT32MatchesTape(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const batch, ra, rb, c = 3, 4, 5, 6
	a := randMat(batch*ra, c, rng)
	b := randMat(batch*rb, c, rng)

	tp := NewTape()
	ref := tp.BatchMatMulNT(tp.Const(a), tp.Const(b), batch)

	got := NewMatrix32(batch*ra, rb)
	BatchMatMulNT32(got, Matrix32From(a), Matrix32From(b), batch)
	if d := maxRelDiff64v32(ref.Value, got); d > 1e-5 {
		t.Fatalf("batched NT rel diff %g", d)
	}
}

func TestMatMul32ShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	MatMulInto32(NewMatrix32(2, 2), NewMatrix32(2, 3), NewMatrix32(2, 2))
}

func TestBatchMatMulNT32ShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("batch mismatch did not panic")
		}
	}()
	BatchMatMulNT32(NewMatrix32(3, 2), NewMatrix32(3, 4), NewMatrix32(2, 4), 2)
}

func TestRowsView32(t *testing.T) {
	m := NewMatrix32(4, 2)
	for i := range m.Data {
		m.Data[i] = float32(i)
	}
	v := m.RowsView(1, 3)
	if v.Rows != 2 || v.Cols != 2 || v.At(0, 0) != 2 || v.At(1, 1) != 5 {
		t.Fatalf("view contents wrong: %+v", v)
	}
	v.Data[0] = -1
	if m.At(1, 0) != -1 {
		t.Fatal("view does not share backing array")
	}
}

// TestAttnKernels8 checks the packed per-row attention kernels against
// plain Go loops, over strides and row counts including the empty row.
func TestAttnKernels8(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct{ n, stride int }{{0, 24}, {1, 8}, {7, 24}, {30, 192}, {13, 9}} {
		q := make([]float32, 8)
		for i := range q {
			q[i] = float32(rng.NormFloat64())
		}
		need := 8
		if tc.n > 0 {
			need = (tc.n-1)*tc.stride + 8
		}
		k := make([]float32, need)
		for i := range k {
			k[i] = float32(rng.NormFloat64())
		}
		got := make([]float32, tc.n)
		QKScores8(got, q, k, tc.stride)
		for j := 0; j < tc.n; j++ {
			var want float32
			for c := 0; c < 8; c++ {
				want += float32(q[c] * k[j*tc.stride+c])
			}
			if diff := float64(got[j] - want); diff > 1e-5 || diff < -1e-5 {
				t.Fatalf("QKScores8 n=%d stride=%d j=%d: got %v want %v", tc.n, tc.stride, j, got[j], want)
			}
		}

		w := make([]float32, tc.n)
		for i := range w {
			w[i] = float32(rng.Float64())
		}
		out := make([]float32, 8)
		wantOut := make([]float32, 8)
		for i := range out {
			out[i] = float32(rng.NormFloat64())
			wantOut[i] = out[i]
		}
		AttnV8(out, w, k, tc.stride)
		for j, wv := range w {
			for c := 0; c < 8; c++ {
				wantOut[c] += float32(wv * k[j*tc.stride+c])
			}
		}
		for c := range out {
			if out[c] != wantOut[c] {
				t.Fatalf("AttnV8 n=%d stride=%d lane=%d: got %v want %v", tc.n, tc.stride, c, out[c], wantOut[c])
			}
		}
	}
}

// TestSoftmax32MatchesGeneric pins the Softmax32 kernel to its Go
// twin bitwise, for every row length 4-64, over rows mixing ordinary
// scores, masked entries, a padded tail and extreme-range lanes. On
// non-amd64 builds the kernel is the twin and the test is trivially
// true.
func TestSoftmax32MatchesGeneric(t *testing.T) {
	const masked = float32(-1e9)
	extremes := []float32{0, float32(math.Copysign(0, -1)), 87, -87, -87.3, -87.29, -87.31, -88, 1e4, -1e4, -3e38, 3e38, 1e-30}
	rng := rand.New(rand.NewSource(13))
	for n := 4; n <= 64; n += 4 {
		for trial := 0; trial < 50; trial++ {
			row := make([]float32, n)
			nreal := 1 + rng.Intn(n) // entries past nreal are padding
			live := rng.Intn(nreal)  // one real entry is never masked
			for i := range row {
				switch {
				case i == live:
					row[i] = float32(rng.NormFloat64())
				case i >= nreal:
					row[i] = masked
				case rng.Intn(5) == 0:
					row[i] = masked
				case trial%5 == 4 && rng.Intn(3) == 0:
					row[i] = extremes[rng.Intn(len(extremes))]
				default:
					row[i] = float32(rng.NormFloat64() * float64(1+trial%4*10))
				}
			}
			want := append([]float32(nil), row...)
			softmax32Generic(want)
			got := append([]float32(nil), row...)
			Softmax32(got)
			var sum float64
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("n=%d trial=%d lane %d (x=%v): kernel %v (%#x) != twin %v (%#x)",
						n, trial, i, row[i], got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
				}
				if row[i] == masked && got[i] != 0 {
					t.Fatalf("n=%d trial=%d: masked lane %d = %v, want exactly 0", n, trial, i, got[i])
				}
				sum += float64(got[i])
			}
			if math.Abs(sum-1) > 1e-5 {
				t.Fatalf("n=%d trial=%d: weights sum to %v", n, trial, sum)
			}
		}
	}
}

// TestExp32Accuracy bounds the softmax exponential against math.Exp:
// relative error at most 2e-7 over [-87, 0], exactly 0 below the
// cutoff.
func TestExp32Accuracy(t *testing.T) {
	if got := exp32(0); got != 1 {
		t.Fatalf("exp32(0) = %v, want 1", got)
	}
	// A uniform grid over [-87, 0] (one point per ~4e-5, which crosses
	// every change of the reduction's n many times) plus log-spaced
	// points toward 0.
	var worst float64
	var worstAt float32
	check := func(d float32) {
		want := math.Exp(float64(d))
		if rel := math.Abs(float64(exp32(d))-want) / want; rel > worst {
			worst, worstAt = rel, d
		}
	}
	const grid = 1 << 21
	for i := 0; i <= grid; i++ {
		check(float32(-87 * float64(i) / grid))
	}
	for e := -3.0; e >= -30; e -= 1.0 / 64 {
		check(float32(-math.Pow(10, e)))
	}
	if worst > 2e-7 {
		t.Fatalf("max relative error %g at %v, want <= 2e-7", worst, worstAt)
	}
	t.Logf("max relative error %g at %v", worst, worstAt)
	for _, d := range []float32{math.Nextafter32(exp32Cutoff, -100), -87.5, -88, -104, -1e9, -3e38, float32(math.Inf(-1))} {
		if got := exp32(d); math.Float32bits(got) != 0 {
			t.Fatalf("exp32(%v) = %v, want exactly +0", d, got)
		}
	}
}
