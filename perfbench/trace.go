package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ucad/ucad/internal/obs"
)

// span is one timed call from the benchmark into a module of the
// program. Spans of one event share its event id (-1 when a call serves
// many events, like an HTTP request carrying a batch).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	Event  int    `json:"event"`
}

// tracer keeps spans in memory and writes them out when the run ends.
// The nil tracer records nothing, which is what an untraced run uses.
type tracer struct {
	origin time.Time
	next   atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{origin: time.Now()}
}

// begin opens a span; call the returned function to close it. It
// returns the span id for children.
func (t *tracer) begin(name string, parent int64, ev int) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	id := t.next.Add(1)
	start := time.Since(t.origin).Nanoseconds()
	return id, func() {
		end := time.Since(t.origin).Nanoseconds()
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end, Event: ev})
		t.mu.Unlock()
	}
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		cs := children[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, cur := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.Name] += float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// busyUnder sums the durations of the spans of one name whose parent
// satisfies keep.
func (t *tracer) busyUnder(name string, keep func(parent int64) bool) (seconds float64, count int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name && keep(s.Parent) {
			seconds += float64(s.End-s.Start) / 1e9
			count++
		}
	}
	return seconds, count
}

// traceFile is what a traced run writes when it ends.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Spans    []span             `json:"spans"`
	SelfS    map[string]float64 `json:"self_seconds"`
	Counters map[string]float64 `json:"counter_deltas"`
	// Overhead is traced minus untraced per end-to-end metric, present
	// when an untraced run of the same workload and seed was saved first.
	Overhead map[string]float64 `json:"overhead,omitempty"`
}

func (t *tracer) write(path string, tf traceFile) error {
	t.mu.Lock()
	tf.Spans = t.spans
	t.mu.Unlock()
	tf.SelfS = t.selfTimes()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(tf); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scrape reads a metrics registry through its Prometheus text exposition
// (the same bytes GET /metrics serves) into series -> value.
func scrape(reg *obs.Registry) map[string]float64 {
	var buf bytes.Buffer
	reg.WriteText(&buf)
	out := make(map[string]float64)
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// counters is a scrape reduced to per-family sums (every registry here
// carries one tenant and one feed source), plus histogram buckets.
type counters map[string]float64

// family sums every series of one metric name.
func family(sc map[string]float64) counters {
	out := make(counters)
	for series, v := range sc {
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
			if strings.HasSuffix(name, "_bucket") {
				if le := labelValue(series, "le"); le != "" {
					name += "|" + le
				}
			}
		}
		out[name] += v
	}
	return out
}

func labelValue(series, label string) string {
	i := strings.Index(series, label+`="`)
	if i < 0 {
		return ""
	}
	rest := series[i+len(label)+2:]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return rest[:j]
}

// sub returns c - base, key by key.
func (c counters) sub(base counters) counters {
	out := make(counters, len(c))
	for k, v := range c {
		out[k] = v - base[k]
	}
	return out
}

// add accumulates o into c.
func (c counters) add(o counters) {
	for k, v := range o {
		c[k] += v
	}
}

// quantile estimates a quantile of a histogram family from its
// cumulative bucket deltas (linear within the bucket, as Prometheus's
// histogram_quantile does).
func (c counters) quantile(name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + "_bucket|"
	for k, v := range c {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimPrefix(k, prefix), 64)
		if err != nil {
			le = math.Inf(1)
		}
		bs = append(bs, bucket{le, v})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].n
	prevLe, prevN := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if math.IsInf(b.le, 1) {
				return prevLe
			}
			if b.n == prevN {
				return b.le
			}
			return prevLe + (b.le-prevLe)*(rank-prevN)/(b.n-prevN)
		}
		prevLe, prevN = b.le, b.n
	}
	return prevLe
}

// runtimeStats snapshots the Go runtime counters the per-layer report
// uses.
type runtimeStats struct {
	gcCycles   uint64
	pauseNs    uint64
	mallocs    uint64
	allocBytes uint64
}

func readRuntime() runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeStats{gcCycles: uint64(ms.NumGC), pauseNs: ms.PauseTotalNs, mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc}
}

func (r runtimeStats) plus(b runtimeStats) runtimeStats {
	return runtimeStats{r.gcCycles + b.gcCycles, r.pauseNs + b.pauseNs, r.mallocs + b.mallocs, r.allocBytes + b.allocBytes}
}

func (r runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{r.gcCycles - b.gcCycles, r.pauseNs - b.pauseNs, r.mallocs - b.mallocs, r.allocBytes - b.allocBytes}
}

// heapSampler tracks the peak of the live Go heap (the objects the last
// garbage collection marked live) while it runs, every 20 ms. Live bytes,
// unlike heap in use, do not depend on when the collector happened to
// run.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		metrics.Read(sample)
		if sample[0].Value.Kind() == metrics.KindUint64 {
			if v := sample[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
		}
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// take returns the peak in MiB since the previous take (or the start)
// and starts a new one.
func (h *heapSampler) take() float64 {
	return float64(h.peak.Swap(0)) / (1 << 20)
}

func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}
