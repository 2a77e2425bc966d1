package main

import (
	"sort"
	"sync"
	"time"

	"github.com/ucad/ucad/internal/serve"
)

// pollEvery is how often the prober reads the alert list. The verdict
// time comes from the program's own UpdatedAt stamp, so polling only has
// to be fast enough to read each probe's stamp before a later flag of the
// same session overwrites it.
const pollEvery = 10 * time.Millisecond

// prober turns alert timestamps into probe verdict latencies. A probe is
// registered (client, assembler position, due time) just before its
// event is offered; the first poll that finds the position in the
// session's alert takes UpdatedAt as the verdict time. Every registered
// probe ends up as a sample, slow ones included, so a slowdown cannot
// drop out of the latency figures.
type prober struct {
	mu       sync.Mutex
	sessions map[string]map[int]time.Time // client -> position -> due

	samples []time.Duration
	// bounded counts samples where a later position of the same session
	// had flagged by the time of the poll: UpdatedAt then belongs to that
	// later flag, an upper bound within one poll interval of the probe's.
	bounded int
	// late counts probes first seen only once their alert was final. The
	// sample is the final alert's UpdatedAt (its close-out), an upper
	// bound: the flag landed then at the latest.
	late int
	// unseen counts probes still without a verdict at the drain deadline.
	// The sample is the time from due to the deadline, a lower bound.
	unseen int
}

func newProber() *prober {
	return &prober{sessions: make(map[string]map[int]time.Time)}
}

func (p *prober) register(client string, pos int, due time.Time) {
	p.mu.Lock()
	m := p.sessions[client]
	if m == nil {
		m = make(map[int]time.Time)
		p.sessions[client] = m
	}
	m[pos] = due
	p.mu.Unlock()
}

func (p *prober) unregister(client string, pos int) {
	p.mu.Lock()
	delete(p.sessions[client], pos)
	p.mu.Unlock()
}

// pending reports probes still awaiting their verdict.
func (p *prober) pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, m := range p.sessions {
		n += len(m)
	}
	return n
}

// poll reads the service's alerts once.
func (p *prober) poll(svc *serve.Service) { p.observe(svc.Alerts("")) }

// observe takes the verdict of every pending probe the alerts include.
func (p *prober) observe(alerts []serve.Alert) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range alerts {
		a := &alerts[i]
		m := p.sessions[a.Client]
		if len(m) == 0 || len(a.Positions) == 0 {
			continue
		}
		last := a.Positions[len(a.Positions)-1]
		for pos, due := range m {
			j := sort.SearchInts(a.Positions, pos)
			if j == len(a.Positions) || a.Positions[j] != pos {
				continue
			}
			delete(m, pos)
			p.samples = append(p.samples, a.UpdatedAt.Sub(due))
			switch {
			case a.Final:
				p.late++
			case pos != last:
				p.bounded++
			}
		}
	}
}

// run polls until stop is closed.
func (p *prober) run(svc *serve.Service, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(pollEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			p.poll(svc)
		}
	}
}

// waitDrained polls until every registered probe has its verdict or the
// deadline passes; a probe still pending then is timed up to now and
// counted in unseen.
func (p *prober) waitDrained(svc *serve.Service, deadline time.Duration) {
	end := time.Now().Add(deadline)
	for p.pending() > 0 && time.Now().Before(end) {
		time.Sleep(pollEvery)
		p.poll(svc)
	}
	p.expire(time.Now())
}

// expire times every still pending probe up to now.
func (p *prober) expire(now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, m := range p.sessions {
		for pos, due := range m {
			delete(m, pos)
			p.samples = append(p.samples, now.Sub(due))
			p.unseen++
		}
	}
}
