package main

import (
	"time"

	"github.com/ucad/ucad/internal/core"
	"github.com/ucad/ucad/internal/session"
	"github.com/ucad/ucad/internal/sqlnorm"
	"github.com/ucad/ucad/internal/transdas"
	"github.com/ucad/ucad/internal/workload"
)

// offlineSeed fixes the offline corpus: the fit and held-out sets are the
// same in every run, so the offline metrics vary only with the program.
const offlineSeed = 42

// fitOps truncates each fit session, fixing a round's training budget at
// fitOps-L windows.
const fitOps = 90

// offline is the paper's offline stage, run the way `ucad train` and
// `ucad detect` run it, in one round per run round: each round fine-tunes
// the stored paper-shape model for one epoch on one more Scenario-II
// session (its first fitOps operations: 60 windows; the fine-tune
// defaults: all cores, mini-batch 16), then judges one held-out session
// with DetectSession in float64 without a score cache — normal (V1) and
// attack (A1, A2, A3 in turn) sessions alternating.
type offline struct {
	tr      *tracer
	u       *core.UCAD
	fit     []*session.Session
	normal  []*session.Session
	attack  []*session.Session
	learn   time.Duration
	windows int
	fitTime time.Duration
	// fitRates is windows/s per round; detectRates ops/s per judged
	// session.
	fitRates    []float64
	ops         int
	detectTime  time.Duration
	detectRates []float64
	flaggedNor  int
	flaggedAtk  int
	judgedAtk   int
}

// newOffline loads a private copy of the model and builds the corpus,
// timing the vocabulary learning over it on a fresh vocabulary.
func newOffline(tr *tracer, rounds int) (*offline, error) {
	u, err := loadModel()
	if err != nil {
		return nil, err
	}
	u.Model.SetTrainParallelism(0, 16)
	u.Model.SetScorePrecision(transdas.PrecisionFloat64)
	gen := workload.NewGenerator(workload.ScenarioII(scenarioRichness), offlineSeed)
	o := &offline{tr: tr, u: u, fit: gen.GenerateSessions(rounds)}
	for _, s := range o.fit {
		s.Ops = s.Ops[:min(len(s.Ops), fitOps)]
	}
	for r := 0; r < (rounds+1)/2; r++ {
		n := gen.NewSession()
		o.normal = append(o.normal, n)
		switch r % 3 {
		case 0:
			o.attack = append(o.attack, gen.AbusePrivilege(n))
		case 1:
			o.attack = append(o.attack, gen.StealCredential(n))
		default:
			o.attack = append(o.attack, gen.Misoperate(gen.Spec().AvgLen))
		}
	}
	all := append(append(append([]*session.Session(nil), o.fit...), o.normal...), o.attack...)
	_, end := tr.begin("vocab.learn", 0, -1)
	t := time.Now()
	session.TokenizeLearn(sqlnorm.NewVocabulary(), all)
	o.learn = time.Since(t)
	end()
	return o, nil
}

// round runs offline round r.
func (o *offline) round(r int) {
	pid, endRound := o.tr.begin("phase.offline", 0, r)
	defer endRound()
	_, end := o.tr.begin("core.FineTune", pid, r)
	t := time.Now()
	res := o.u.FineTune(o.fit[r:r+1], 1, nil)
	took := time.Since(t)
	end()
	o.fitTime += took
	o.windows += res.Windows
	o.fitRates = append(o.fitRates, float64(res.Windows)/took.Seconds())

	judge := func(s *session.Session) bool {
		_, end := o.tr.begin("core.DetectSession", pid, r)
		t := time.Now()
		bad := o.u.DetectSession(s)
		took := time.Since(t)
		end()
		o.detectTime += took
		o.ops += len(s.Ops)
		o.detectRates = append(o.detectRates, float64(len(s.Ops))/took.Seconds())
		return len(bad) > 0
	}
	if r%2 == 0 {
		if judge(o.normal[r/2]) {
			o.flaggedNor++
		}
		return
	}
	o.judgedAtk++
	if judge(o.attack[r/2]) {
		o.flaggedAtk++
	}
}

// f1 is the session-level detection F1 over the judged sessions.
func (o *offline) f1() float64 {
	tp, fp, fn := float64(o.flaggedAtk), float64(o.flaggedNor), float64(o.judgedAtk-o.flaggedAtk)
	if tp == 0 {
		return 0
	}
	return 2 * tp / (2*tp + fp + fn)
}
