package main

import (
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

// pairsOf pairs parent values with change values shifted by d.
func pairsOf(pv []float64, d float64) (cv []float64, pairs [][2]float64) {
	for _, p := range pv {
		cv = append(cv, p+d)
		pairs = append(pairs, [2]float64{p, p + d})
	}
	return cv, pairs
}

func TestVerdict(t *testing.T) {
	ten := []float64{100, 101, 102, 103, 104, 105, 106, 107, 108, 109}
	cv, pairs := pairsOf(ten, 20)
	for _, tc := range []struct {
		name       string
		pv, cv     []float64
		pairs      [][2]float64
		moreFailed bool
		want       string
	}{
		{"gain", ten, cv, pairs, false, "gain"},
		{"more failures", ten, cv, pairs, true, "no gain"},
		{"too few pairs", ten[:3], cv[:3], pairs[:3], false, "within bound (a gain needs"},
		{"no change runs", ten, nil, nil, false, "no correct change runs"},
		{"no parent runs", nil, cv, nil, false, "no correct parent runs"},
		{"loss within bound", cv, ten, nil, false, "within bound"},
	} {
		got := verdict(tc.pv, tc.cv, tc.pairs, true, 0.25, tc.moreFailed)
		if !strings.HasPrefix(got, tc.want) {
			t.Errorf("%s: verdict %q, want prefix %q", tc.name, got, tc.want)
		}
	}
	if got := verdict(ten, []float64{50, 51, 52}, nil, true, 0.25, false); !strings.HasPrefix(got, "REGRESSION") {
		t.Errorf("halved throughput: verdict %q, want a regression", got)
	}
	if got := summary(nil, "ms"); got != "-" {
		t.Errorf("summary of no runs = %q, want -", got)
	}
}

func TestCorrectRunsAndPairedFailed(t *testing.T) {
	parent := map[int64]result{1: {Correct: true, Failed: 0}, 2: {Correct: true, Failed: 1}}
	change := map[int64]result{1: {Correct: true, Failed: 3}, 2: {Correct: false}, 3: {Correct: true, Failed: 9}}
	c := correctRuns(change)
	if len(c) != 2 || !c[1].Correct || !c[3].Correct {
		t.Fatalf("correctRuns kept %v", c)
	}
	p, f := pairedFailed(correctRuns(parent), c)
	if p != 0 || f != 3 {
		t.Fatalf("pairedFailed = %d, %d; want 0, 3 (seed 1 only)", p, f)
	}
}
