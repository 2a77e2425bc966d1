package transdas

import "sort"

// The single-item API below is a thin wrapper family over the
// batch-first Scorer: every call borrows a pooled Scorer and runs a
// batch of one. Callers scoring more than one context at a time should
// hold a Scorer and use ScoreBatch / RankBatch directly — one stacked
// forward pass amortizes far better than a loop over these wrappers.

// detectChunk bounds how many contexts a session scan stacks into one
// forward pass: large enough to amortize the pass, small enough to keep
// the padded (chunk·Window) x Hidden scratch modest.
const detectChunk = 32

// ScoreNext feeds the (up to L most recent) preceding keys through the
// model and returns sim[k] = sigmoid(O_last · M(k)) for every statement
// key (Eq. 10); sim[0] (the k0 slot) is always 0. The returned slice has
// cfg.Vocab entries. An empty context yields all-zero similarities: with
// no preceding operations there is no contextual intent to compare
// against. It is a batch-of-one wrapper over Scorer.ScoreBatch.
func (m *Model) ScoreNext(preceding []int) []float64 {
	return m.ScoreNextInto(nil, preceding)
}

// ScoreNextInto is ScoreNext writing into buf when cap(buf) >= cfg.Vocab,
// allocating only otherwise. Serving hot paths call it in a loop with one
// reused buffer so scoring an operation costs zero heap allocations for
// the similarity vector.
func (m *Model) ScoreNextInto(buf []float64, preceding []int) []float64 {
	s := m.scorer()
	s.oneCtx[0] = preceding
	s.oneOut[0] = buf
	out := s.ScoreBatchInto(s.oneOut[:1], s.oneCtx[:1])[0]
	s.oneCtx[0], s.oneOut[0] = nil, nil
	m.scorers.Put(s)
	return out
}

// RankOf returns the 1-based similarity rank of key among all keys given
// the preceding context (rank 1 = most similar to the predicted intent).
// A PadKey or out-of-vocabulary key ranks last (Vocab). With an empty
// context every in-vocabulary key ranks 1 (no evidence of anomaly). It
// is a batch-of-one wrapper over Scorer.RankBatch.
func (m *Model) RankOf(preceding []int, key int) int {
	return m.RankOfInto(nil, preceding, key)
}

// RankOfInto is RankOf with a caller-supplied similarity buffer (see
// ScoreNextInto).
func (m *Model) RankOfInto(buf []float64, preceding []int, key int) int {
	return rankIn(m.ScoreNextInto(buf, preceding), key)
}

// TopKeys returns the p statement keys most similar to the predicted
// contextual intent, in descending similarity order.
func (m *Model) TopKeys(preceding []int, p int) []int {
	return m.TopKeysInto(nil, nil, preceding, p)
}

// TopKeysInto is TopKeys with caller-reusable buffers: simBuf backs the
// similarity vector (see ScoreNextInto) and keyBuf the returned key
// slice, so a scan loop allocates nothing once both are warm.
func (m *Model) TopKeysInto(keyBuf []int, simBuf []float64, preceding []int, p int) []int {
	sims := m.ScoreNextInto(simBuf, preceding)
	keys := keyBuf[:0]
	for k := 1; k < len(sims); k++ {
		keys = append(keys, k)
	}
	sort.SliceStable(keys, func(i, j int) bool { return sims[keys[i]] > sims[keys[j]] })
	if p > len(keys) {
		p = len(keys)
	}
	return keys[:p]
}

// DetectSession applies the top-p strategy (§5.3) to every operation of
// a session that has at least MinContext preceding operations. It
// returns the indices of operations whose key does not rank within the
// top p (anomalies). Unknown statements (PadKey) are always anomalous.
// The scan is internally batched: growing context prefixes are scored
// in chunks of one stacked forward pass each.
func (m *Model) DetectSession(keys []int) []int {
	var anomalies []int
	m.scanSession(keys, func(t int) bool {
		anomalies = append(anomalies, t)
		return true
	})
	return anomalies
}

// IsAnomalous reports whether any operation in the session fails the
// top-p test — the session-level flag used for the paper's metrics. It
// stops at the first failing chunk instead of scanning the whole
// session.
func (m *Model) IsAnomalous(keys []int) bool {
	anomalous := false
	m.scanSession(keys, func(int) bool {
		anomalous = true
		return false
	})
	return anomalous
}

// scanSession runs the top-p test over every scorable position of a
// session in detectChunk-sized batches, invoking onAnomaly with each
// failing position. Returning false from onAnomaly stops the scan.
func (m *Model) scanSession(keys []int, onAnomaly func(t int) bool) {
	if len(keys) <= m.cfg.MinContext {
		return
	}
	s := m.scorer()
	defer m.scorers.Put(s)
	ctxs := make([][]int, 0, detectChunk)
	targets := make([]int, 0, detectChunk)
	for t0 := m.cfg.MinContext; t0 < len(keys); t0 += detectChunk {
		hi := min(t0+detectChunk, len(keys))
		ctxs, targets = ctxs[:0], targets[:0]
		for t := t0; t < hi; t++ {
			ctxs = append(ctxs, keys[:t])
			targets = append(targets, keys[t])
		}
		s.ranks = s.RankBatchInto(s.ranks, ctxs, targets)
		for i, r := range s.ranks {
			if r > m.cfg.TopP && !onAnomaly(t0+i) {
				return
			}
		}
	}
}
