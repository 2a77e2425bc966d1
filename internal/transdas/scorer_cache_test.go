package transdas

import (
	"math"
	"math/rand"
	"testing"

	"github.com/ucad/ucad/internal/scorecache"
)

// cacheTestContexts builds a deterministic mixed batch of contexts for
// cache round-trip tests.
func cacheTestContexts(rng *rand.Rand, m *Model, n int) [][]int {
	ctxs := make([][]int, n)
	for i := range ctxs {
		ctxs[i] = randomContext(rng, m.cfg.Vocab, 1+rng.Intn(m.cfg.Window))
	}
	return ctxs
}

// TestScoreCacheHitReturnsIdenticalRows: a warm cache must return
// byte-identical similarity rows to the forward pass that populated it,
// and the counters must account for every lookup.
func TestScoreCacheHitReturnsIdenticalRows(t *testing.T) {
	m := trainToy(t)
	c := scorecache.New(256)
	m.SetScoreCache(c)
	rng := rand.New(rand.NewSource(5))
	ctxs := cacheTestContexts(rng, m, 12)

	s := m.NewScorer()
	cold := s.ScoreBatch(ctxs)
	coldCopy := make([][]float64, len(cold))
	for i, row := range cold {
		coldCopy[i] = append([]float64(nil), row...)
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != uint64(len(ctxs)) {
		t.Fatalf("cold pass stats = %+v, want 0 hits / %d misses", st, len(ctxs))
	}

	// A different scorer on the same model must hit the shared cache.
	warm := m.NewScorer().ScoreBatch(ctxs)
	for i := range warm {
		for k := range warm[i] {
			if warm[i][k] != coldCopy[i][k] {
				t.Fatalf("ctx %d key %d: cached %v != computed %v", i, k, warm[i][k], coldCopy[i][k])
			}
		}
	}
	st = c.Stats()
	if st.Hits != uint64(len(ctxs)) || st.Misses != uint64(len(ctxs)) {
		t.Fatalf("warm pass stats = %+v, want %d hits / %d misses", st, len(ctxs), len(ctxs))
	}
	if c.Len() == 0 {
		t.Fatal("cache empty after populated pass")
	}
}

// TestScoreCacheMixedHitMissBatch: a batch interleaving cached and
// novel contexts must produce exactly the uncached scores for both
// kinds — exercising the miss-compaction path in ScoreBatchInto.
func TestScoreCacheMixedHitMissBatch(t *testing.T) {
	m := trainToy(t)
	rng := rand.New(rand.NewSource(9))
	all := cacheTestContexts(rng, m, 10)

	// Reference: no cache attached.
	ref := make([][]float64, len(all))
	for i, row := range m.NewScorer().ScoreBatch(all) {
		ref[i] = append([]float64(nil), row...)
	}

	c := scorecache.New(256)
	m.SetScoreCache(c)
	defer m.SetScoreCache(nil)
	// Seed the cache with the even-index contexts only.
	even := make([][]int, 0, len(all)/2)
	for i := 0; i < len(all); i += 2 {
		even = append(even, all[i])
	}
	m.NewScorer().ScoreBatch(even)

	got := m.NewScorer().ScoreBatch(all)
	for i := range all {
		for k := range got[i] {
			if math.Abs(got[i][k]-ref[i][k]) > 1e-12 {
				t.Fatalf("ctx %d key %d: mixed batch %v != reference %v", i, k, got[i][k], ref[i][k])
			}
		}
	}
	st := c.Stats()
	if st.Hits != uint64(len(even)) {
		t.Fatalf("stats = %+v, want %d hits from the seeded contexts", st, len(even))
	}
}

// TestScoreCacheInvalidatedByFineTune: after a fine-tune round the
// cache must never serve pre-tune rows — fresh scores have to match an
// uncached computation on the updated weights.
func TestScoreCacheInvalidatedByFineTune(t *testing.T) {
	m := trainToy(t)
	c := scorecache.New(256)
	m.SetScoreCache(c)
	rng := rand.New(rand.NewSource(13))
	ctxs := cacheTestContexts(rng, m, 8)

	stale := make([][]float64, len(ctxs))
	for i, row := range m.NewScorer().ScoreBatch(ctxs) {
		stale[i] = append([]float64(nil), row...)
	}
	gen := c.Gen()
	m.FineTune(toySessions(10, rng), 3, nil)
	if c.Gen() == gen {
		t.Fatal("FineTune did not bump the attached cache generation")
	}

	got := m.NewScorer().ScoreBatch(ctxs)
	m.SetScoreCache(nil)
	ref := m.NewScorer().ScoreBatch(ctxs)
	changed := false
	for i := range ctxs {
		for k := range got[i] {
			if got[i][k] != ref[i][k] {
				t.Fatalf("ctx %d key %d: post-tune cached path %v != uncached %v", i, k, got[i][k], ref[i][k])
			}
			if math.Abs(got[i][k]-stale[i][k]) > 1e-12 {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("fine-tune left every score identical; invalidation check is vacuous")
	}
}

// TestScoreCacheComposesWithFloat32: cache + float32 kernel together
// must return the float32 scores on miss and the same rows on hit.
func TestScoreCacheComposesWithFloat32(t *testing.T) {
	m := trainToy(t)
	rng := rand.New(rand.NewSource(17))
	ctxs := cacheTestContexts(rng, m, 6)

	m.SetScorePrecision(PrecisionFloat32)
	defer m.SetScorePrecision(PrecisionFloat64)
	ref := make([][]float64, len(ctxs))
	for i, row := range m.NewScorer().ScoreBatch(ctxs) {
		ref[i] = append([]float64(nil), row...)
	}

	c := scorecache.New(64)
	m.SetScoreCache(c)
	defer m.SetScoreCache(nil)
	cold := m.NewScorer().ScoreBatch(ctxs)
	for i := range cold {
		for k := range cold[i] {
			if cold[i][k] != ref[i][k] {
				t.Fatalf("ctx %d key %d: cached float32 miss %v != plain float32 %v", i, k, cold[i][k], ref[i][k])
			}
		}
	}
	warm := m.NewScorer().ScoreBatch(ctxs)
	for i := range warm {
		for k := range warm[i] {
			if warm[i][k] != ref[i][k] {
				t.Fatalf("ctx %d key %d: cached float32 hit %v != plain float32 %v", i, k, warm[i][k], ref[i][k])
			}
		}
	}
	if st := c.Stats(); st.Hits != uint64(len(ctxs)) {
		t.Fatalf("stats = %+v, want %d hits on the warm pass", st, len(ctxs))
	}
}

// TestRankBatchUsesCache: the rank path must flow through the same
// cache (RankBatchInto scores via ScoreBatchInto).
func TestRankBatchUsesCache(t *testing.T) {
	m := trainToy(t)
	c := scorecache.New(64)
	m.SetScoreCache(c)
	defer m.SetScoreCache(nil)
	rng := rand.New(rand.NewSource(21))
	ctxs := cacheTestContexts(rng, m, 5)
	keys := make([]int, len(ctxs))
	for i := range keys {
		keys[i] = 1 + rng.Intn(m.cfg.Vocab-1)
	}
	s := m.NewScorer()
	r1 := append([]int(nil), s.RankBatch(ctxs, keys)...)
	r2 := s.RankBatch(ctxs, keys)
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("rank %d changed across cached calls: %d vs %d", i, r1[i], r2[i])
		}
	}
	st := c.Stats()
	if st.Hits == 0 || st.Misses != uint64(len(ctxs)) {
		t.Fatalf("stats = %+v, want warm hits and exactly %d misses", st, len(ctxs))
	}
}

// TestScoreBatchWarmCacheAllocFree: a warm Scorer must not allocate in
// either precision, with every context cached (rows come from the
// scorer's arena and sims from the cache) and without a cache (the
// forward pass reuses its scratch and the weight snapshot).
func TestScoreBatchWarmCacheAllocFree(t *testing.T) {
	m := trainToy(t)
	rng := rand.New(rand.NewSource(25))
	ctxs := cacheTestContexts(rng, m, 4)
	for _, cached := range []bool{true, false} {
		for _, prec := range []Precision{PrecisionFloat64, PrecisionFloat32} {
			name := "uncached-" + prec.String()
			if cached {
				name = "cached-" + prec.String()
			}
			t.Run(name, func(t *testing.T) {
				if cached {
					m.SetScoreCache(scorecache.New(64))
					defer m.SetScoreCache(nil)
				}
				m.SetScorePrecision(prec)
				defer m.SetScorePrecision(PrecisionFloat64)
				s := m.NewScorer()
				s.ScoreBatch(ctxs) // populate cache, arena and scratch
				avg := testing.AllocsPerRun(50, func() {
					s.ScoreBatch(ctxs)
				})
				if avg > 0 {
					t.Fatalf("warm ScoreBatch allocates %.1f times per call, want 0", avg)
				}
			})
		}
	}
}
