package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json compare mode needs.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// minPairs is the fewest seed pairs a gain verdict needs.
const minPairs = 10

// compareMain compares the untraced runs of two commits:
//
//	perfbench compare PARENT_RESULTS CHANGE_RESULTS
//
// Each argument is a results directory (.bench_build/results of a
// checkout). Runs whose verdict check failed (correct=false) are left
// out; the rest pair up by seed. Per workload it prints each side's run
// count, incorrect runs and failed operations, then per end-to-end
// metric both sides' medians and quartiles and a verdict:
//
//   - gain: at least minPairs pairs, the change wins at least 9 of every
//     10 (ties count for neither side), the medians differ by more than
//     the parent's quartile spread, and the change fails no more
//     operations than the parent over the paired seeds;
//   - regression: the change's median is worse than the parent's by more
//     than the metric's bound;
//   - unresolved: the parent's quartile spread exceeds the bound (unless
//     every change run beats every parent run);
//   - within bound: none of the above.
func compareMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench compare PARENT_RESULTS_DIR CHANGE_RESULTS_DIR")
	}
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	parent, err := loadRuns(args[0])
	if err != nil {
		return err
	}
	change, err := loadRuns(args[1])
	if err != nil {
		return err
	}
	for _, w := range bf.Workloads {
		p, c := correctRuns(parent[w.Name]), correctRuns(change[w.Name])
		pFailed, cFailed := pairedFailed(p, c)
		fmt.Printf("%s: parent %d runs (%d incorrect), change %d runs (%d incorrect); failed operations over paired seeds: parent %d, change %d\n",
			w.Name, len(parent[w.Name]), len(parent[w.Name])-len(p), len(change[w.Name]), len(change[w.Name])-len(c), pFailed, cFailed)
		fmt.Printf("  %-20s %5s  %-32s %-32s %s\n", "metric", "pairs", "parent median [q1, q3]", "change median [q1, q3]", "verdict")
		for _, m := range bf.EndToEnd {
			pv, cv, pairs := pairUp(p, c, m.Name)
			v := verdict(pv, cv, pairs, m.Better == "higher", m.Bound, cFailed > pFailed)
			fmt.Printf("  %-20s %5d  %-32s %-32s %s\n", m.Name, len(pairs), summary(pv, m.Unit), summary(cv, m.Unit), v)
		}
	}
	return nil
}

// loadRuns reads every untraced result in dir, by workload then seed.
func loadRuns(dir string) (map[string]map[int64]result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*-trace0.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s: no untraced results", dir)
	}
	out := make(map[string]map[int64]result)
	for _, p := range paths {
		sr, err := loadResult(p)
		if err != nil {
			return nil, err
		}
		if out[sr.Workload] == nil {
			out[sr.Workload] = make(map[int64]result)
		}
		out[sr.Workload][sr.Seed] = sr.Result
	}
	return out, nil
}

// correctRuns keeps the runs whose verdict check passed.
func correctRuns(runs map[int64]result) map[int64]result {
	out := make(map[int64]result)
	for seed, r := range runs {
		if r.Correct {
			out[seed] = r
		}
	}
	return out
}

// pairedFailed sums each side's failed operations over the seeds both
// sides ran. The event counts depend only on the seed, so the sums
// compare like with like.
func pairedFailed(parent, change map[int64]result) (p, c int64) {
	for seed, pr := range parent {
		if cr, ok := change[seed]; ok {
			p += pr.Failed
			c += cr.Failed
		}
	}
	return p, c
}

// pairUp returns both sides' values of one metric and the seed-matched
// pairs.
func pairUp(parent, change map[int64]result, name string) (pv, cv []float64, pairs [][2]float64) {
	for seed, r := range parent {
		if m, ok := r.Metrics[name]; ok {
			pv = append(pv, m.Value)
			if c, ok := change[seed].Metrics[name]; ok {
				pairs = append(pairs, [2]float64{m.Value, c.Value})
			}
		}
	}
	for _, r := range change {
		if m, ok := r.Metrics[name]; ok {
			cv = append(cv, m.Value)
		}
	}
	return pv, cv, pairs
}

// verdict judges one metric. moreFailed reports that the change failed
// more operations than the parent over the paired seeds, which rules out
// a gain.
func verdict(pv, cv []float64, pairs [][2]float64, higher bool, bound float64, moreFailed bool) string {
	switch {
	case len(pv) == 0 && len(cv) == 0:
		return "no correct runs"
	case len(pv) == 0:
		return "no correct parent runs"
	case len(cv) == 0:
		return "no correct change runs"
	}
	better := func(c, p float64) bool {
		if higher {
			return c > p
		}
		return c < p
	}
	wins := 0
	for _, p := range pairs {
		if better(p[1], p[0]) {
			wins++
		}
	}
	pMed, cMed := median(pv), median(cv)
	q1, q3 := quartiles(pv)
	spread := q3 - q1
	if len(pairs) >= minPairs && float64(wins) >= 0.9*float64(len(pairs)) && math.Abs(cMed-pMed) > spread && better(cMed, pMed) {
		if moreFailed {
			return fmt.Sprintf("no gain: wins %d/%d pairs but fails more operations", wins, len(pairs))
		}
		return fmt.Sprintf("gain (%d/%d pairs, %+.1f%%)", wins, len(pairs), 100*(cMed-pMed)/pMed)
	}
	worse := (pMed - cMed) / pMed
	if !higher {
		worse = -worse
	}
	if worse > bound {
		return fmt.Sprintf("REGRESSION (%.1f%% worse, bound %.0f%%)", 100*worse, 100*bound)
	}
	allBetter := true
	for _, c := range cv {
		for _, p := range pv {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	if spread/pMed > bound && !allBetter {
		return fmt.Sprintf("unresolved (parent spread %.1f%% > bound %.0f%%)", 100*spread/pMed, 100*bound)
	}
	if len(pairs) < minPairs && better(cMed, pMed) {
		return fmt.Sprintf("within bound (a gain needs %d pairs, have %d)", minPairs, len(pairs))
	}
	return "within bound"
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(values, n=4) computes them (exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	at := func(j int) float64 {
		pos := float64(j*(n+1)) / 4 // 1-based
		k := int(math.Floor(pos))
		frac := pos - float64(k)
		switch {
		case k < 1:
			return s[0]
		case k >= n:
			return s[n-1]
		}
		return s[k-1] + frac*(s[k]-s[k-1])
	}
	return at(1), at(3)
}

// summary renders one side's median and quartiles, or "-" when the side
// has no runs.
func summary(xs []float64, unit string) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %s", median(xs), q1, q3, unit)
}
