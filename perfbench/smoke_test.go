package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestSmoke is the benchmark's own smoke test: a shortened run of every
// workload, untraced and traced, asserting that each metric BENCHMARK.json
// names is reported with its unit and that the correctness check passes.
// Run it from perfbench/ with `go test .` (about a minute).
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	// The benchmark runs from the repository root, where BENCHMARK.json
	// and the stored model are found.
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var bf struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(options{workload: w.Name, seed: 1, seconds: 2, trace: trace})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
		}
	}
}
