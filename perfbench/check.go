package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"github.com/ucad/ucad/internal/serve"
)

// checkJob is one session the reference replays: the statements the
// served run accepted, and every served client whose final flags must
// equal the reference's (restricted to that client's accepted prefix —
// a position's rank depends only on the operations before it).
type checkJob struct {
	stmts   []string
	clients []checkClient
}

type checkClient struct {
	client string
	n      int // accepted statements
}

// checkOutcome counts what the correctness check found.
type checkOutcome struct {
	sessions      int // served sessions compared against a reference
	references    int // reference replays run
	mismatches    int // sessions whose flagged positions differ
	missingProbes int // sessions with an accepted probe that never flagged
}

// reference replays one session through a fresh single-shard,
// single-worker, uncached serve.Service with the same model and
// precision, and returns the flagged positions of its final alert.
func reference(spec *workloadSpec, stmts []string) ([]int, error) {
	u, err := loadModel()
	if err != nil {
		return nil, err
	}
	u.Model.SetScorePrecision(spec.precision)
	svc := serve.NewService(u, serve.Config{Shards: 1, Workers: 1, QueueSize: len(stmts) + 1, Batch: 16, IdleTimeout: time.Hour})
	for _, sql := range stmts {
		if err := svc.Ingest(serve.Event{ClientID: "ref", User: "ref", SQL: sql}); err != nil {
			return nil, fmt.Errorf("reference ingest: %w", err)
		}
	}
	svc.Drain()
	svc.Stop()
	return finalPositions(svc)["ref"], nil
}

// checkSessions verifies the served verdicts. Every accepted probe must
// have flagged. Then the jobs are replayed through reference services
// (two at a time: one per core) and each served session's flagged
// positions must match the reference's.
func checkSessions(spec *workloadSpec, sessions []*genSession, final map[string][]int, jobs []checkJob, tr *tracer) (*checkOutcome, error) {
	pid, endPhase := tr.begin("phase.check", 0, -1)
	defer endPhase()
	out := &checkOutcome{references: len(jobs)}
	for _, s := range sessions {
		got := final[s.client]
		for k, idx := range s.kept {
			if s.probes[idx] && !slices.Contains(got, k) {
				out.missingProbes++
				logf("check: %s: probe at position %d never flagged (final flags %v)", s.client, k, got)
				break
			}
		}
	}

	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				_, end := tr.begin("check.reference", pid, i)
				ref, err := reference(spec, jobs[i].stmts)
				end()
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				for _, c := range jobs[i].clients {
					want := prefixPositions(ref, c.n)
					got := final[c.client]
					out.sessions++
					if !slices.Equal(got, want) {
						out.mismatches++
						logf("check: %s: served flags %v, reference %v", c.client, got, want)
					}
				}
				mu.Unlock()
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	logf("check: %d served sessions against %d reference replays: %d mismatched, %d with a probe that never flagged",
		out.sessions, out.references, out.mismatches, out.missingProbes)
	return out, firstErr
}

func prefixPositions(ps []int, n int) []int {
	var out []int
	for _, p := range ps {
		if p < n {
			out = append(out, p)
		}
	}
	return out
}

// sampleJobs picks k sessions (seeded) that were served without a
// refusal and builds one reference job each.
func sampleJobs(rng *rand.Rand, sessions []*genSession, k int) []checkJob {
	var cand []*genSession
	for _, s := range sessions {
		if len(s.kept) > 0 && s.kept[len(s.kept)-1] == len(s.kept)-1 {
			cand = append(cand, s)
		}
	}
	rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	var jobs []checkJob
	for _, s := range cand[:min(k, len(cand))] {
		jobs = append(jobs, checkJob{stmts: s.stmts[:len(s.kept)], clients: []checkClient{{s.client, len(s.kept)}}})
	}
	return jobs
}

// poolJobs builds one reference job per pooled session covering every
// served instance of it (instances share the pool session's statement
// slice).
func poolJobs(pool []*genSession, sessions []*genSession) []checkJob {
	jobs := make([]checkJob, len(pool))
	for i, p := range pool {
		jobs[i].stmts = p.stmts
		for _, s := range sessions {
			if len(s.stmts) > 0 && &s.stmts[0] == &p.stmts[0] && len(s.kept) > 0 {
				jobs[i].clients = append(jobs[i].clients, checkClient{s.client, len(s.kept)})
			}
		}
	}
	return jobs
}
