package main

import (
	"fmt"
	"sort"
	"time"
)

// reportInput is everything one run measured.
type reportInput struct {
	spec       *workloadSpec
	fixeds     []*fixedOutcome
	replays    []*replayOutcome
	off        *offline
	chk        *checkOutcome
	setup      float64
	peakHeapMB float64
	vocab      int

	// HTTP middleware spans (traced runs only): both measured phases,
	// and the replay phase alone.
	httpBusy, httpReplayBusy float64
	httpReqs                 int
	non2xx                   int64
	// depthMax is the deepest scoring queue sampled (traced runs only).
	depthMax int64
}

// flopsPerMiss is the computed cost of one uncached scoring pass of the
// stored model over a full window: per block and row, the fused Q|K|V
// and output projections (4h² MACs), the h-wide FFN (2h²), and the
// attention scores and A·V over L keys (2Lh); then Eq. 10's similarity
// read-out against every key (Vh). Two FLOPs per MAC. Every row of every
// block is counted, an upper bound: the last block needs only the final
// row.
func flopsPerMiss(vocab int) float64 {
	h, L, B, V := float64(modelHidden), float64(modelWindow), float64(modelBlocks), float64(vocab)
	return 2 * (B*L*(6*h*h+2*L*h) + V*h)
}

func (in reportInput) failed() int64 {
	c := in.counters()
	refused := 0
	for _, f := range in.fixeds {
		refused += f.refused
	}
	return int64(refused) + int64(c["ucad_feed_dropped_events_total"]) +
		int64(in.chk.mismatches) + int64(in.chk.missingProbes)
}

func (in reportInput) attempted() int64 {
	n := 0
	for _, f := range in.fixeds {
		n += f.offered
	}
	for _, r := range in.replays {
		n += r.offered
	}
	return int64(n)
}

// replayed sums the replay rounds: counter deltas, runtime deltas and
// wall time.
func (in reportInput) replayed() (c counters, rt runtimeStats, wall float64) {
	c = make(counters)
	for _, r := range in.replays {
		c.add(r.counters)
		rt = rt.plus(r.rt)
		wall += r.elapsed.Seconds()
	}
	return c, rt, wall
}

// counters sums the two measured phases' counter deltas.
func (in reportInput) counters() counters {
	c, _, _ := in.replayed()
	for _, f := range in.fixeds {
		c.add(f.counters)
	}
	return c
}

func (in reportInput) result(trace bool) *result {
	res := &result{
		Correct:   in.chk.mismatches == 0 && in.chk.missingProbes == 0,
		Attempted: in.attempted(),
		Failed:    in.failed(),
		Metrics:   make(map[string]metric),
	}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	if !trace {
		rates := make([]float64, len(in.replays))
		for i, r := range in.replays {
			rates[i] = float64(r.offered) / r.elapsed.Seconds()
		}
		put("replay_events_per_s", median(rates), "ev/s")
		put("verdict_p50_ms", in.verdictMS(0.50), "ms")
		put("train_windows_per_s", median(in.off.fitRates), "win/s")
		put("detect_ops_per_s", median(in.off.detectRates), "ops/s")
		put("setup_s", in.setup, "s")
		put("peak_heap_mb", in.peakHeapMB, "MiB")
		return res
	}

	c := in.counters()
	r, rrt, rwall := in.replayed()
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	offered := float64(in.attempted())

	put("gen.offered", offered, "count")
	var lateness, latency []time.Duration
	var bounded, late, unseen int
	rt := rrt
	for _, f := range in.fixeds {
		lateness = append(lateness, f.lateness...)
		latency = append(latency, f.latency...)
		bounded += f.bounded
		late += f.late
		unseen += f.unseen
		rt = rt.plus(f.rt)
	}
	put("gen.late_p99_ms", ms(quantileDur(lateness, 0.99)), "ms")

	put("feed.delivered", c["ucad_feed_delivered_events_total"], "count")
	put("feed.posts", c["ucad_feed_delivery_seconds_count"], "count")
	put("feed.retries", c["ucad_feed_delivery_retries_total"], "count")
	put("feed.parse_errors", c["ucad_feed_parse_errors_total"], "count")
	put("feed.delivery_busy_s", c["ucad_feed_delivery_seconds_sum"], "s")

	put("http.requests", float64(in.httpReqs), "count")
	put("http.non2xx", float64(in.non2xx), "count")
	put("http.busy_s", in.httpBusy, "s")
	put("http.us_per_event", 1e6*div(in.httpBusy, c["ucad_feed_delivered_events_total"]), "us")

	ingestBusy := c["ucad_ingest_seconds_sum"]
	put("ingest.calls", c["ucad_ingest_seconds_count"], "count")
	put("ingest.busy_s", ingestBusy, "s")
	put("ingest.us_per_event", 1e6*div(ingestBusy, c["ucad_ingest_seconds_count"]), "us")
	put("ingest.rejected", c["ucad_events_rejected_total"], "count")

	fsyncBusy := c["ucad_wal_fsync_seconds_sum"]
	put("wal.appends", c["ucad_wal_appends_total"], "count")
	put("wal.fsyncs", c["ucad_wal_fsync_seconds_count"], "count")
	put("wal.fsync_busy_s", fsyncBusy, "s")
	put("wal.fsync_us_mean", 1e6*div(fsyncBusy, c["ucad_wal_fsync_seconds_count"]), "us")

	scoreBusy := c["ucad_score_seconds_sum"]
	put("engine.passes", c["ucad_score_seconds_count"], "count")
	put("engine.batch_mean", div(c["ucad_score_batch_size_sum"], c["ucad_score_batch_size_count"]), "jobs")
	put("engine.queue_wait_busy_s", c["ucad_queue_wait_seconds_sum"], "s")
	put("engine.queue_wait_p99_ms", 1e3*c.quantile("ucad_queue_wait_seconds", 0.99), "ms")
	put("engine.queue_depth_max", float64(in.depthMax), "jobs")

	closeBusy := c["ucad_closeout_seconds_sum"]
	misses := c["ucad_score_cache_misses_total"]
	put("score.ops", c["ucad_ops_scored_total"], "count")
	put("score.busy_s", scoreBusy, "s")
	put("score.ms_per_op", 1e3*div(scoreBusy, c["ucad_ops_scored_total"]), "ms")
	put("score.gflops", div(misses*flopsPerMiss(in.vocab), scoreBusy+closeBusy)/1e9, "GFLOP/s")

	hits := c["ucad_score_cache_hits_total"]
	put("cache.hits", hits, "count")
	put("cache.misses", misses, "count")
	put("cache.hit_ratio", div(hits, hits+misses), "ratio")

	put("closeout.sessions", c["ucad_closeout_seconds_count"], "count")
	put("closeout.busy_s", closeBusy, "s")
	put("closeout.ms_per_session", 1e3*div(closeBusy, c["ucad_closeout_seconds_count"]), "ms")

	put("alerts.raised", c["ucad_alerts_raised_total"], "count")
	put("flags.mid_session", c["ucad_flags_mid_session_total"], "count")
	put("flag_rate", div(c["ucad_flags_mid_session_total"], c["ucad_ops_scored_total"]), "ratio")
	put("verdict_p95_ms", in.verdictMS(0.95), "ms")
	put("probes.seen", float64(len(latency)-unseen), "count")
	put("probes.bounded", float64(bounded), "count")
	put("probes.late", float64(late), "count")
	put("probes.unseen", float64(unseen), "count")
	put("sqlnorm.unknown_keys", c["ucad_feed_unknown_keys_total"], "count")

	put("gc.cycles", float64(rt.gcCycles), "count")
	put("gc.pause_s", float64(rt.pauseNs)/1e9, "s")
	put("allocs_per_event", div(float64(rt.mallocs), offered), "allocs")
	put("alloc_bytes_per_event", div(float64(rt.allocBytes), offered), "B")

	put("vocab.learn_s", in.off.learn.Seconds(), "s")
	put("train.windows", float64(in.off.windows), "count")
	put("train.busy_s", in.off.fitTime.Seconds(), "s")
	put("detect.ops", float64(in.off.ops), "count")
	put("detect.busy_s", in.off.detectTime.Seconds(), "s")
	put("detect.f1", in.off.f1(), "ratio")

	// Busy share of the replay phase: the ingest path counted once at
	// its outermost measured layer (HTTP request spans, which contain
	// ingest and its WAL fsyncs, or ingest itself when events go
	// straight in), plus scoring and close-out, over wall x GOMAXPROCS.
	front := r["ucad_ingest_seconds_sum"]
	if in.httpReplayBusy > front {
		front = in.httpReplayBusy
	}
	named := front + r["ucad_score_seconds_sum"] + r["ucad_closeout_seconds_sum"]
	put("layers.cpu_share", named/(rwall*gomaxprocs()), "ratio")
	put("failed_frac", div(float64(in.failed()), offered), "ratio")
	return res
}

// verdictMS is the median over the rounds of each fixed-rate phase's
// q-quantile probe verdict latency.
func (in reportInput) verdictMS(q float64) float64 {
	var per []float64
	for _, f := range in.fixeds {
		per = append(per, ms(quantileDur(f.latency, q)))
	}
	return median(per)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// printMetrics writes one "name value unit" line per metric, sorted.
func printMetrics(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}
