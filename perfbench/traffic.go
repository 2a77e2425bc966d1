package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/ucad/ucad/internal/core"
	"github.com/ucad/ucad/internal/sqlnorm"
	"github.com/ucad/ucad/internal/workload"
)

// probeSQL is the statement the benchmark inserts after every
// probeEvery-th operation of a generated session and at its end. Its
// table exists in no Scenario-II template, so it maps to the UNK key,
// which the model always ranks last: the statement always flags, and the
// moment its flag lands is visible from outside as the alert's
// UpdatedAt.
func probeSQL(n int) string {
	return fmt.Sprintf("SELECT token FROM perfbench_probe WHERE id = %d", n)
}

// probeEvery spaces the inserted probes. Scenario-II sessions are ~130
// operations long, so session-final probes alone would time fewer than
// one event in a hundred — too few for a p95 per round.
const probeEvery = 10

// genSession is one generated client session.
type genSession struct {
	client string
	user   string
	addr   string
	stmts  []string
	// probes marks the positions whose statement is out of vocabulary
	// (UNK) and at least MinContext deep, so it is scored and always
	// flags: the injected final probe plus any Scenario-II statement the
	// stored vocabulary does not know.
	probes []bool
	// kept lists the statement indices the program accepted, in order
	// (generator goroutine only): kept[k] sits at assembler position k.
	kept []int
}

// event is one scheduled audit event: op pos of session s.
type event struct {
	id  int
	s   *genSession
	pos int
}

// sessionMaker generates Scenario-II sessions at full template richness,
// deterministically from the workload seed.
type sessionMaker struct {
	gen    *workload.Generator
	vocab  *sqlnorm.Vocabulary
	minCtx int
	prefix string
	n      int
}

func newSessionMaker(u *core.UCAD, seed int64, prefix string) *sessionMaker {
	return &sessionMaker{
		gen:    workload.NewGenerator(workload.ScenarioII(scenarioRichness), seed),
		vocab:  u.Vocab,
		minCtx: u.Model.Config().MinContext,
		prefix: prefix,
	}
}

func (m *sessionMaker) next() *genSession {
	s := m.gen.NewSession()
	m.n++
	g := &genSession{
		client: fmt.Sprintf("%s-%d", m.prefix, m.n),
		user:   s.User,
		addr:   s.Addr,
	}
	for i, op := range s.Ops {
		g.stmts = append(g.stmts, op.SQL)
		if (i+1)%probeEvery == 0 {
			g.stmts = append(g.stmts, probeSQL(m.n))
		}
	}
	g.stmts = append(g.stmts, probeSQL(m.n))
	g.probes = make([]bool, len(g.stmts))
	for i, sql := range g.stmts {
		g.probes[i] = i >= m.minCtx && m.vocab.Key(sql) == sqlnorm.UnknownKey
	}
	return g
}

// clone replays a pooled session under a fresh client id.
func (g *genSession) clone(client string) *genSession {
	return &genSession{client: client, user: g.user, addr: g.addr, stmts: g.stmts, probes: g.probes}
}

// interleave schedules n events from `concurrency` sessions open at a
// time, picking the session of each next event at random (seeded), so
// the stream looks like independent clients sharing one front door.
func interleave(rng *rand.Rand, n, concurrency int, next func() *genSession) []event {
	type cursor struct {
		s   *genSession
		pos int
	}
	open := make([]*cursor, 0, concurrency)
	out := make([]event, 0, n)
	for len(out) < n {
		for len(open) < concurrency {
			open = append(open, &cursor{s: next()})
		}
		i := rng.Intn(len(open))
		c := open[i]
		out = append(out, event{id: len(out), s: c.s, pos: c.pos})
		c.pos++
		if c.pos == len(c.s.stmts) {
			open[i] = open[len(open)-1]
			open = open[:len(open)-1]
		}
	}
	// A trailing partial session is cut where the count ran out; its
	// final probe never comes, which is fine — only offered probes are
	// timed.
	return out
}

// sessionsOf lists the distinct sessions of an event stream in first-seen
// order.
func sessionsOf(evs []event) []*genSession {
	seen := make(map[*genSession]bool)
	var out []*genSession
	for _, e := range evs {
		if !seen[e.s] {
			seen[e.s] = true
			out = append(out, e.s)
		}
	}
	return out
}

// dueAt is the scheduled offer time of event i at a constant rate.
func dueAt(t0 time.Time, i int, rate float64) time.Time {
	return t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
}
