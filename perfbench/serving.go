package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"github.com/ucad/ucad/internal/core"
	"github.com/ucad/ucad/internal/feed"
	"github.com/ucad/ucad/internal/scorecache"
	"github.com/ucad/ucad/internal/serve"
	"github.com/ucad/ucad/internal/session"
	"github.com/ucad/ucad/internal/tenant"
	"github.com/ucad/ucad/internal/transdas"
	"github.com/ucad/ucad/internal/wal"
)

// workloadSpec is one serving configuration and traffic mix.
type workloadSpec struct {
	name      string
	precision transdas.Precision
	// frontDoor routes traffic through the whole front door: an audit
	// JSONL file tailed by a feed.Feeder that POSTs over loopback HTTP to
	// the tenant registry's handler, into a durable tenant (-fsync
	// interval, 100 ms).
	// Without it, events go straight to tenant.Registry.Ingest of a
	// non-durable tenant.
	frontDoor bool
	// rate is the fixed-rate phase's event rate (events/s), about a fifth
	// of the replay throughput measured on the commit that defined the
	// benchmark (see README.md for why each was picked).
	rate float64
	// idle is the session idle timeout. The servers' 10-minute default
	// would close no session inside a run, leaving close-out unmeasured.
	idle time.Duration
	// pool > 0 draws every session from a pool of this many generated
	// sessions, replayed under fresh client ids (scheduled jobs and ORM
	// endpoints repeating the same statements).
	pool int
}

// poolSeed generates the pooled workload's job set.
const poolSeed = 42

const (
	scoreCacheRows = 4096 // the servers' default -score-cache-size
	sweepEvery     = time.Second
	tenantID       = "bench"
)

var workloads = []workloadSpec{
	{
		name:      "serve-cold",
		precision: transdas.PrecisionFloat32,
		rate:      200,
		idle:      2 * time.Second,
	},
	{
		name:      "ingest-hot",
		precision: transdas.PrecisionFloat64,
		frontDoor: true,
		rate:      3000,
		idle:      3 * time.Second,
		pool:      3,
	},
}

// The session pace the open-session count is derived from: the
// Scenario-II generator stamps a session's statements 0.5–5 s apart
// (uniform, mean thinkMean), and ucad-serve and ucad-feed close a
// session after serverIdle without one.
const (
	thinkMean  = 2750 * time.Millisecond
	serverIdle = 10 * time.Minute
)

// concurrency is the number of client sessions open at a time. The
// benchmark compresses time so that sessions close inside a run
// (serverIdle → idle), and it compresses a client's pace by the same
// factor, so a session's pauses stand to its idle cut-off as they do at
// the servers' defaults: each open session sends one statement per
// thinkMean × idle/serverIdle on average. By Little's law, sustaining
// the fixed rate then takes rate × that gap open sessions.
func (w *workloadSpec) concurrency() int {
	gap := thinkMean.Seconds() * w.idle.Seconds() / serverIdle.Seconds()
	return max(1, int(math.Round(w.rate*gap)))
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func findWorkload(name string) (*workloadSpec, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
}

// servingConfig is ucad-serve's default per-tenant serving configuration
// with the workload's idle timeout.
func servingConfig(spec *workloadSpec) serve.Config {
	return serve.Config{
		Workers:           4,
		Shards:            0, // all CPUs
		QueueSize:         1024,
		Batch:             16,
		IdleTimeout:       spec.idle,
		SweepEvery:        sweepEvery,
		RetrainEpochs:     2,
		MaxResolvedAlerts: 4096,
		ResolvedAlertTTL:  24 * time.Hour,
	}
}

// tune applies ucad-serve's per-model settings: fine-tune parallelism,
// scoring precision and a fresh score cache.
func tune(spec *workloadSpec) func(*core.UCAD) {
	return func(u *core.UCAD) {
		u.Model.SetTrainParallelism(0, 16)
		u.Model.SetScorePrecision(spec.precision)
		u.Model.SetScoreCache(scorecache.New(scoreCacheRows))
	}
}

// stack is one running serving stack: a tenant registry with one tenant
// and, for front-door workloads, its HTTP listener and feed metrics.
type stack struct {
	spec *workloadSpec
	tr   *tracer
	dir  string
	reg  *tenant.Registry
	svc  *serve.Service

	srv       *http.Server
	url       string
	feedMet   *feed.Metrics
	phaseSpan atomic.Int64 // parent of HTTP request spans
	non2xx    atomic.Int64
	depthMax  atomic.Int64
	files     int

	base     counters // serving counters at the last rebase
	feedBase counters
}

// setupStack builds a stack and warms it up: model load, registry and
// tenant start, listener, and one warm-up pass of traffic so lazy
// set-up (worker spawn, the float32 weight snapshot, the score cache of
// a pooled workload) is paid here rather than in a measured phase.
func setupStack(spec *workloadSpec, tr *tracer, runDir string, idx int, warm []*genSession) (*stack, time.Duration, error) {
	start := time.Now()
	sid, end := tr.begin("setup", 0, -1)
	defer end()
	st := &stack{spec: spec, tr: tr, dir: filepath.Join(runDir, fmt.Sprintf("stack%d", idx))}
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		return nil, 0, err
	}

	_, endLoad := tr.begin("model.load", sid, -1)
	u, err := loadModel()
	endLoad()
	if err != nil {
		return nil, 0, err
	}

	_, endCreate := tr.begin("tenant.create", sid, -1)
	opts := tenant.Options{Serve: servingConfig(spec), Tune: tune(spec)}
	if spec.frontDoor {
		opts.Root = filepath.Join(st.dir, "data")
		opts.Durability = serve.DurabilityConfig{
			Fsync:         wal.SyncInterval,
			FsyncInterval: 100 * time.Millisecond,
			SegmentBytes:  64 << 20,
			SnapshotEvery: time.Minute,
		}
	}
	st.reg = tenant.New(opts)
	tn, err := st.reg.CreateFromModel(tenant.Spec{ID: tenantID}, u)
	endCreate()
	if err != nil {
		return nil, 0, err
	}
	st.svc = tn.Service()

	if spec.frontDoor {
		_, endListen := tr.begin("http.listen", sid, -1)
		err := st.listen()
		endListen()
		if err != nil {
			return nil, 0, err
		}
	}

	wid, endWarm := tr.begin("warmup", sid, -1)
	var evs []event
	for _, s := range warm {
		for i := range s.stmts {
			evs = append(evs, event{id: -1, s: s, pos: i})
		}
	}
	_, err = st.offerBacklog(evs, wid)
	st.svc.Drain()
	endWarm()
	if err != nil {
		return nil, 0, err
	}
	st.rebase()
	return st, time.Since(start), nil
}

// listen serves the registry's handler on a loopback port. A traced run
// wraps it in a middleware span per request.
func (st *stack) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h := st.reg.Handler()
	if st.tr != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, end := st.tr.begin("http.request", st.phaseSpan.Load(), -1)
			rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
			inner.ServeHTTP(rec, r)
			end()
			if rec.code/100 != 2 {
				st.non2xx.Add(1)
			}
		})
	}
	st.srv = &http.Server{Handler: h}
	st.url = "http://" + ln.Addr().String()
	st.feedMet = feed.NewMetrics(nil)
	go st.srv.Serve(ln)
	return nil
}

type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// close shuts the stack down (no close-out: measured phases call
// Service.Stop themselves).
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if st.srv != nil {
		st.srv.Shutdown(ctx)
	}
	st.reg.Close(ctx)
}

// rebase restarts the counter deltas from now.
func (st *stack) rebase() {
	st.base = family(scrape(st.reg.Hub().Registry))
	if st.feedMet != nil {
		st.feedBase = family(scrape(st.feedMet.Registry))
	}
}

// counters returns the serving (and feed) counter deltas since the last
// rebase.
func (st *stack) counters() counters {
	c := family(scrape(st.reg.Hub().Registry)).sub(st.base)
	if st.feedMet != nil {
		c.add(family(scrape(st.feedMet.Registry)).sub(st.feedBase))
	}
	return c
}

func (st *stack) delivered() int64 {
	return int64(family(scrape(st.feedMet.Registry))["ucad_feed_delivered_events_total"] - st.feedBase["ucad_feed_delivered_events_total"])
}

// sampleDepth tracks the deepest scoring queue until stop is closed
// (traced runs only: Stats is not free).
func (st *stack) sampleDepth() (stop func()) {
	if st.tr == nil {
		return func() {}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				if d := int64(st.svc.Stats().QueueDepth); d > st.depthMax.Load() {
					st.depthMax.Store(d)
				}
			}
		}
	}()
	return func() { close(quit); <-done }
}

// feeder tails one audit file into the stack over HTTP with ucad-feed's
// defaults (batch 64, 200ms flush, 50ms poll, 30s failover rewind, no
// offset checkpoints) and the workload's session idle cut-off.
type feeder struct {
	cancel context.CancelFunc
	done   chan error
	tail   *feed.Tailer
}

func (st *stack) startFeeder(path string) (*feeder, error) {
	sm := st.feedMet.Source(filepath.Base(path))
	tail, err := feed.NewTailer(feed.TailerConfig{Path: path, Format: "jsonl", Poll: 50 * time.Millisecond, Metrics: sm})
	if err != nil {
		return nil, err
	}
	fd, err := feed.NewFeeder(feed.FeederConfig{
		Source:         tail,
		Deliver:        &feed.HTTPDeliverer{URL: st.url, URLs: []string{st.url}, Tenant: tenantID, Metrics: sm},
		Tenant:         tenantID,
		BatchSize:      64,
		FlushInterval:  200 * time.Millisecond,
		Idle:           st.spec.idle,
		FailoverRewind: 30 * time.Second,
		Metrics:        sm,
	})
	if err != nil {
		tail.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &feeder{cancel: cancel, done: make(chan error, 1), tail: tail}
	go func() { f.done <- fd.Run(ctx) }()
	return f, nil
}

func (f *feeder) stop() error {
	f.cancel()
	err := <-f.done
	f.tail.Close()
	if errors.Is(err, context.Canceled) {
		err = nil
	}
	return err
}

// newAuditFile creates an empty audit log for one phase.
func (st *stack) newAuditFile() (*os.File, string, error) {
	st.files++
	path := filepath.Join(st.dir, fmt.Sprintf("audit-%d.jsonl", st.files))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	return f, path, err
}

// auditLine renders one event as an audit JSONL record.
func auditLine(buf []byte, e event, ts time.Time) []byte {
	b, _ := json.Marshal(session.Operation{Time: ts, User: e.s.user, Addr: e.s.addr, SessionID: e.s.client, SQL: e.s.stmts[e.pos]})
	buf = append(buf, b...)
	return append(buf, '\n')
}

// waitDelivered blocks until the feeder has delivered n events in total
// since set-up (or the deadline passes).
func (st *stack) waitDelivered(n int64, deadline time.Duration) error {
	end := time.Now().Add(deadline)
	for st.delivered() < n {
		if time.Now().After(end) {
			return fmt.Errorf("feeder delivered %d of %d events within %s", st.delivered(), n, deadline)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// offerBacklog offers evs as fast as they are accepted and returns once
// the last one is in. Direct ingest retries ErrBusy after a short pause
// (backpressure) and starts at once; the front door first writes the
// backlog to a fresh audit file (untimed), and start is when the feeder
// starts on it.
func (st *stack) offerBacklog(evs []event, parent int64) (start time.Time, err error) {
	if !st.spec.frontDoor {
		start = time.Now()
		for _, e := range evs {
			if err := st.ingestRetry(e, parent); err != nil {
				return start, err
			}
		}
		return start, nil
	}
	f, path, err := st.newAuditFile()
	if err != nil {
		return start, err
	}
	var buf []byte
	now := time.Now()
	for _, e := range evs {
		buf = auditLine(buf, e, now)
		e.s.kept = append(e.s.kept, e.pos)
	}
	_, err = f.Write(buf)
	f.Close()
	if err != nil {
		return start, err
	}
	before := st.delivered()
	start = time.Now()
	fd, err := st.startFeeder(path)
	if err != nil {
		return start, err
	}
	err = st.waitDelivered(before+int64(len(evs)), 150*time.Second)
	if serr := fd.stop(); err == nil {
		err = serr
	}
	return start, err
}

// ingestRetry offers one event to the registry until it is accepted.
func (st *stack) ingestRetry(e event, parent int64) error {
	ev := serve.Event{Tenant: tenantID, ClientID: e.s.client, User: e.s.user, Addr: e.s.addr, SQL: e.s.stmts[e.pos]}
	for {
		_, end := st.tr.begin("tenant.Ingest", parent, e.id)
		err := st.reg.Ingest(ev)
		end()
		if err == nil {
			e.s.kept = append(e.s.kept, e.pos)
			return nil
		}
		if !errors.Is(err, serve.ErrBusy) {
			return err
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// fixedOutcome is what the fixed-rate phase measured.
type fixedOutcome struct {
	offered  int
	refused  int
	latency  []time.Duration // probe verdict latencies
	bounded  int
	late     int
	unseen   int
	lateness []time.Duration // generator: actual offer time - due time
	counters counters
	rt       runtimeStats
}

// fixedPhase offers evs on a constant schedule (open loop): event i is
// due at t0 + i/rate and is timed from then; an event refused with
// ErrBusy is counted and not retried. It ends once every offered probe
// has its verdict; its sessions close out later (idle sweeps, then the
// replay's final Stop), and the counters restart from there.
func (st *stack) fixedPhase(evs []event, rate float64) (*fixedOutcome, error) {
	pid, endPhase := st.tr.begin("phase.fixed", 0, -1)
	st.phaseSpan.Store(pid)
	out := &fixedOutcome{lateness: make([]time.Duration, 0, len(evs))}
	pr := newProber()
	stopPoll, pollDone := make(chan struct{}), make(chan struct{})
	go pr.run(st.svc, stopPoll, pollDone)
	stopDepth := st.sampleDepth()
	defer stopDepth()

	var fd *feeder
	var file *os.File
	var before int64
	if st.spec.frontDoor {
		var path string
		var err error
		if file, path, err = st.newAuditFile(); err != nil {
			return nil, err
		}
		defer file.Close()
		before = st.delivered()
		if fd, err = st.startFeeder(path); err != nil {
			return nil, err
		}
	}

	rt0 := readRuntime()
	t0 := time.Now().Add(5 * time.Millisecond)
	var buf []byte
	for i := 0; i < len(evs); {
		due := dueAt(t0, i, rate)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		j := i
		for j < len(evs) && !dueAt(t0, j, rate).After(now) {
			j++
		}
		if st.spec.frontDoor {
			// One write per tick: every line already due.
			_, end := st.tr.begin("audit.write", pid, evs[i].id)
			buf = buf[:0]
			for k := i; k < j; k++ {
				e := evs[k]
				if e.s.probes[e.pos] {
					pr.register(e.s.client, len(e.s.kept), dueAt(t0, k, rate))
				}
				e.s.kept = append(e.s.kept, e.pos)
				buf = auditLine(buf, e, dueAt(t0, k, rate))
				out.lateness = append(out.lateness, now.Sub(dueAt(t0, k, rate)))
			}
			_, err := file.Write(buf)
			end()
			if err != nil {
				return nil, err
			}
		} else {
			for k := i; k < j; k++ {
				e := evs[k]
				kdue := dueAt(t0, k, rate)
				out.lateness = append(out.lateness, time.Since(kdue))
				pos := len(e.s.kept)
				if e.s.probes[e.pos] {
					pr.register(e.s.client, pos, kdue)
				}
				_, end := st.tr.begin("tenant.Ingest", pid, e.id)
				err := st.reg.Ingest(serve.Event{Tenant: tenantID, ClientID: e.s.client, User: e.s.user, Addr: e.s.addr, SQL: e.s.stmts[e.pos]})
				end()
				switch {
				case err == nil:
					e.s.kept = append(e.s.kept, e.pos)
				case errors.Is(err, serve.ErrBusy):
					out.refused++
					if e.s.probes[e.pos] {
						pr.unregister(e.s.client, pos)
					}
				default:
					return nil, err
				}
			}
		}
		i = j
	}
	out.offered = len(evs)
	if fd != nil {
		err := st.waitDelivered(before+int64(len(evs)), 30*time.Second)
		if serr := fd.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
	}
	close(stopPoll)
	<-pollDone
	pr.waitDrained(st.svc, 5*time.Second)
	logf("fixed-rate phase: %d probes timed (%d upper bounds), %d seen only once final, %d never seen",
		len(pr.samples), pr.bounded, pr.late, pr.unseen)
	if len(pr.samples) == 0 {
		return nil, fmt.Errorf("no probe of %d events was accepted: the round has no verdict latency", len(evs))
	}
	out.rt = readRuntime().sub(rt0)
	out.latency, out.bounded, out.late, out.unseen = pr.samples, pr.bounded, pr.late, pr.unseen
	endPhase()
	out.counters = st.counters()
	st.rebase()
	return out, nil
}

// replayOutcome is what the replay phase measured.
type replayOutcome struct {
	offered  int
	elapsed  time.Duration
	counters counters
	rt       runtimeStats
}

// replayPhase offers a fixed backlog as fast as it is accepted and times
// it from the first offer until Drain and the final close-out of every
// session (Service.Stop) return.
func (st *stack) replayPhase(evs []event) (*replayOutcome, error) {
	pid, endPhase := st.tr.begin("phase.replay", 0, -1)
	defer endPhase()
	st.phaseSpan.Store(pid)
	stopDepth := st.sampleDepth()
	defer stopDepth()
	rt0 := readRuntime()
	t0, err := st.offerBacklog(evs, pid)
	if err != nil {
		return nil, err
	}
	_, endStop := st.tr.begin("serve.Stop", pid, -1)
	st.svc.Stop()
	endStop()
	out := &replayOutcome{offered: len(evs), elapsed: time.Since(t0), rt: readRuntime().sub(rt0), counters: st.counters()}
	logf("replay: %.0f events/s", float64(out.offered)/out.elapsed.Seconds())
	return out, nil
}

// finalPositions maps each client to the flagged positions of its final
// alert.
func finalPositions(svc *serve.Service) map[string][]int {
	out := make(map[string][]int)
	for _, a := range svc.Alerts("") {
		if a.Final {
			out[a.Client] = a.Positions
		}
	}
	return out
}

// phaseEvents generates the event stream of one phase. Pooled workloads
// replay `pool` generated sessions under fresh client ids.
func phaseEvents(spec *workloadSpec, maker *sessionMaker, pool []*genSession, rng *rand.Rand, n int, prefix string) []event {
	next := maker.next
	if len(pool) > 0 {
		k := 0
		next = func() *genSession {
			k++
			return pool[rng.Intn(len(pool))].clone(fmt.Sprintf("%s-%d", prefix, k))
		}
	}
	evs := interleave(rng, n, spec.concurrency(), next)
	for i := range evs {
		evs[i].id = i
	}
	return evs
}

// quantileDur returns the q-quantile of ds (nearest rank).
func quantileDur(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}

// gomaxprocs is the scheduler width the busy-share denominators use.
func gomaxprocs() float64 { return float64(runtime.GOMAXPROCS(0)) }
