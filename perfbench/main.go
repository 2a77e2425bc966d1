// Command perfbench is UCAD's end-to-end benchmark. One run drives one
// workload against the real program through its public Go entry points,
// checks the verdicts, and prints every metric named in BENCHMARK.json
// by name and unit; the last line of standard output is the result
// object.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh compare RESULTS_PARENT RESULTS_CHANGE
//	bash perfbench/run.sh gen-model
//
// See perfbench/README.md for the workloads, the metric definitions and
// the per-layer predictions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// buildDir holds everything a run leaves behind (binary, scratch data,
// traces, saved results); it is ignored by git.
const buildDir = ".bench_build"

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "gen-model":
			exitIf(genModel())
			return
		case "compare":
			exitIf(compareMain(os.Args[2:]))
			return
		}
	}
	var opts options
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	fs.StringVar(&opts.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&opts.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&opts.seconds, "seconds", 15, "total length of the fixed-rate phases in seconds (the replay backlogs scale with it)")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run: record spans and report the per-layer metrics")
	fs.Parse(os.Args[1:])
	opts.trace = traceFlag == 1
	if opts.seconds <= 0 {
		exitIf(fmt.Errorf("--seconds must be positive"))
	}

	res, err := run(opts)
	exitIf(err)
	exitIf(saveResult(opts, res))
	line, err := json.Marshal(res)
	exitIf(err)
	fmt.Println(string(line))
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// savedResult is one run as the compare mode reads it back.
type savedResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

// resultsDir is where every run files its result for compare mode and
// for the tracing-overhead report of a later traced run.
func resultsDir() string { return filepath.Join(buildDir, "results") }

func resultPath(workload string, seed int64, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(resultsDir(), fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, t))
}

func saveResult(opts options, res *result) error {
	if err := os.MkdirAll(resultsDir(), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(savedResult{Workload: opts.workload, Seed: opts.seed, Trace: opts.trace, Result: *res}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(resultPath(opts.workload, opts.seed, opts.trace), b, 0o644)
}

func loadResult(path string) (*savedResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sr savedResult
	if err := json.Unmarshal(b, &sr); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sr, nil
}

func exitIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// logf reports progress on standard error (standard output carries only
// the metric lines and the result), stamped with the time since start.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: %6.2fs "+format+"\n", append([]any{time.Since(started).Seconds()}, args...)...)
}

var started = time.Now()
