package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
)

// rounds is how many times a run repeats its measurements. Each round
// sets up a fresh stack, runs the fixed-rate phase on it for
// --seconds/rounds, then replays a backlog of twice that phase's events
// on the same stack, and runs one offline round. Every end-to-end metric is the median over the
// rounds, so bursts of noise on a shared machine that hit up to two
// rounds do not move it.
const rounds = 5

// run executes one workload and returns its result object. Standard
// output gets one line per metric; the caller prints the result last.
func run(opts options) (*result, error) {
	spec, err := findWorkload(opts.workload)
	if err != nil {
		return nil, err
	}
	runDir := filepath.Join(buildDir, fmt.Sprintf("run-%s-%d-%d", spec.name, opts.seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	tr := newTracer(opts.trace)
	heap := startHeapSampler()
	defer heap.close()

	// Inputs, all from the seed. The maker needs the model's vocabulary
	// to mark probes.
	u, err := loadModel()
	if err != nil {
		return nil, err
	}
	vocab := u.Model.Config().Vocab
	rng := rand.New(rand.NewSource(opts.seed))
	maker := newSessionMaker(u, opts.seed, "s")
	// The pool is the workload's fixed job set, the same for every seed:
	// with three sessions, drawing it from the seed moved replay
	// throughput twofold between seeds. The seed drives the interleaving.
	var pool []*genSession
	poolMaker := newSessionMaker(u, poolSeed, "pool")
	for i := 0; i < spec.pool; i++ {
		pool = append(pool, poolMaker.next())
	}
	n := int(spec.rate * opts.seconds / rounds)
	fixedEvs := make([][]event, rounds)
	replayEvs := make([][]event, rounds)
	for r := 0; r < rounds; r++ {
		fixedEvs[r] = phaseEvents(spec, maker, pool, rng, n, fmt.Sprintf("fixed%d", r))
		replayEvs[r] = phaseEvents(spec, maker, pool, rng, 2*n, fmt.Sprintf("replay%d", r))
	}
	warm := func(i int) []*genSession {
		if len(pool) > 0 {
			var out []*genSession
			for j, p := range pool {
				out = append(out, p.clone(fmt.Sprintf("warm%d-%d", i, j)))
			}
			return out
		}
		return []*genSession{newSessionMaker(u, opts.seed+int64(i)+1, fmt.Sprintf("warm%d", i)).next()}
	}
	off, err := newOffline(tr, rounds)
	if err != nil {
		return nil, fmt.Errorf("offline stage: %w", err)
	}

	in := reportInput{spec: spec, off: off, vocab: vocab}
	var setupTimes, heapPeaks []float64
	heap.take() // each round's peak counts from the round's start
	final := make(map[string][]int)
	for r := 0; r < rounds; r++ {
		logf("%s seed %d round %d: set-up", spec.name, opts.seed, r+1)
		st, took, err := setupStack(spec, tr, runDir, r, warm(r))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, took.Seconds())
		err = in.servingRound(st, fixedEvs[r], replayEvs[r])
		for k, v := range finalPositions(st.svc) {
			final[k] = v
		}
		st.close()
		if err != nil {
			return nil, err
		}
		logf("round %d: offline", r+1)
		off.round(r)
		heapPeaks = append(heapPeaks, heap.take())
		logf("round %d: peak live heap %.2f MiB", r+1, heapPeaks[r])
	}
	in.httpBusy, in.httpReqs = tr.busyUnder("http.request", func(p int64) bool { return p != 0 })
	in.setup = median(setupTimes)
	in.peakHeapMB = median(heapPeaks)

	logf("correctness check")
	var served, fixedServed, replayed []*genSession
	for r := 0; r < rounds; r++ {
		fixedServed = append(fixedServed, sessionsOf(fixedEvs[r])...)
		replayed = append(replayed, sessionsOf(replayEvs[r])...)
	}
	served = append(append(served, fixedServed...), replayed...)
	var jobs []checkJob
	if len(pool) > 0 {
		jobs = poolJobs(pool, served)
	} else {
		crng := rand.New(rand.NewSource(opts.seed ^ 0xc4ec))
		jobs = append(sampleJobs(crng, fixedServed, 2), sampleJobs(crng, replayed, 2)...)
	}
	if in.chk, err = checkSessions(spec, served, final, jobs, tr); err != nil {
		return nil, fmt.Errorf("correctness check: %w", err)
	}

	res := in.result(opts.trace)
	printMetrics(res)
	if opts.trace {
		if err := writeTrace(opts, tr, in, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// servingRound runs one round's fixed-rate phase and replay on st and
// records what they measured.
func (in *reportInput) servingRound(st *stack, fixedEvs, replayEvs []event) error {
	logf("fixed-rate phase: %d events at %.0f/s", len(fixedEvs), in.spec.rate)
	fx, err := st.fixedPhase(fixedEvs, in.spec.rate)
	if err != nil {
		return fmt.Errorf("fixed-rate phase: %w", err)
	}
	in.fixeds = append(in.fixeds, fx)
	logf("replay: %d events", len(replayEvs))
	rep, err := st.replayPhase(replayEvs)
	if err != nil {
		return fmt.Errorf("replay phase: %w", err)
	}
	in.replays = append(in.replays, rep)
	pid := st.phaseSpan.Load()
	busy, _ := st.tr.busyUnder("http.request", func(p int64) bool { return p == pid })
	in.httpReplayBusy += busy
	in.non2xx += st.non2xx.Load()
	in.depthMax = max(in.depthMax, st.depthMax.Load())
	return nil
}

// writeTrace writes the traced run's spans and counter deltas, and its
// tracing overhead against a saved untraced run of the same workload and
// seed.
func writeTrace(opts options, tr *tracer, in reportInput, res *result) error {
	tf := traceFile{Workload: opts.workload, Seed: opts.seed, Counters: in.counters()}
	if sr, err := loadResult(resultPath(opts.workload, opts.seed, false)); err == nil {
		traced := in.result(false)
		tf.Overhead = make(map[string]float64)
		for name, m := range traced.Metrics {
			if base, ok := sr.Result.Metrics[name]; ok {
				tf.Overhead[name] = m.Value - base.Value
				logf("tracing overhead %s: %+.4f %s (traced %.4f, untraced %.4f)", name, m.Value-base.Value, m.Unit, m.Value, base.Value)
			}
		}
	} else {
		logf("no untraced result for %s seed %d saved yet: tracing overhead not reported", opts.workload, opts.seed)
	}
	path := filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.json", opts.workload, opts.seed))
	logf("trace written to %s", path)
	return tr.write(path, tf)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
