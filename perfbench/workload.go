package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"parapriori"
	"parapriori/internal/distserve"
	"parapriori/internal/itemset"
)

// runner executes one workload run.
type runner struct {
	spec    spec
	seed    int64
	seconds float64
	workdir string

	sp      *spans // non-nil in a traced run
	baskets [][]itemset.Item
	data    *parapriori.Dataset // resident input of the in-memory workloads
	repeat  repeatRecord
	report  []string // human-readable lines printed before the result
}

// basketPool is the number of distinct held-out baskets queried.
const basketPool = 20_000

// setupReps is how many times a run sets up, to report a steady set-up
// time (and, in serve-rw, pipeline times).
const setupReps = 8

// chainRun is one pass through the whole pipeline: mined rules published to
// a fresh fleet and the first answer fetched over HTTP.
type chainRun struct {
	m            *mined
	f            *fleet
	full         distserve.PublishStats
	publishFullS float64
	firstAnswerS float64 // from the first stage to the first correct answer
	rulesReadyS  float64 // mine + rules
	peakRSS      float64 // MiB, peak resident set during the run
	answerBody   []byte
	answerStatus int
	facts        chainFacts
}

// release drops a superseded pipeline run's data, rules and fleet, so they
// do not count in a later run's resident set.
func (c *chainRun) release() {
	c.f.close()
	c.m, c.f = nil, nil
}

// chain runs mine → rules → publish → first answer.  gen reports whether
// generation (and, out of core, the spill) is part of the chain.
func (r *runner) chain(gen bool) (*chainRun, error) {
	debug.FreeOSMemory() // start every pipeline run from the same heap and resident set
	if err := resetPeakRSS(); err != nil {
		return nil, fmt.Errorf("reset peak RSS: %w", err)
	}
	t0 := time.Now()
	var data *parapriori.Dataset
	if !gen {
		data = r.data
	}
	m, err := mineStages(r.spec, r.seed, filepath.Join(r.workdir, "store"), data, r.sp)
	if err != nil {
		return nil, err
	}
	c := &chainRun{m: m, rulesReadyS: m.mineS + m.rulesS}
	if c.f, err = startFleet(r.spec, senders()); err != nil {
		return nil, err
	}
	t := r.sp.begin("distserve", "Router.Publish(full)")
	c.full, err = c.f.cl.Router.Publish(m.rules, true)
	c.publishFullS = r.sp.end(t)
	if err != nil {
		c.f.close()
		return nil, fmt.Errorf("full publish: %w", err)
	}
	var buf bytes.Buffer
	t = r.sp.begin("distserve", "GET /recommend")
	c.answerStatus, err = c.f.get(r.baskets[0], &buf)
	r.sp.end(t)
	if err != nil {
		c.f.close()
		return nil, fmt.Errorf("first answer: %w", err)
	}
	c.firstAnswerS = since(t0)
	c.peakRSS = peakRSSMiB()
	c.answerBody = buf.Bytes()
	c.facts = chainFacts{
		MineVirtualS:     m.report.ResponseTime,
		ResultSHA:        m.sha,
		Shape:            m.shape(),
		StoreBytes:       m.bytes,
		PublishFullBytes: c.full.Bytes,
		Placement:        placementSHA(c.f.cl.Router),
	}
	return c, nil
}

// checkChain verifies a chain's first answer and records its deterministic
// quantities for the exact-repeat gate.
func (r *runner) checkChain(c *chainRun, ora *oracle) error {
	if err := ora.check(c.answerStatus, c.answerBody, 0, r.baskets[0], map[uint64]int{c.full.Gen: 0}); err != nil {
		return fmt.Errorf("first answer: %w", err)
	}
	if !r.repeat.seen {
		sh := c.facts.Shape
		r.logf("shape: candidates=%d frequent=%d passes=%d rules=%d baskets=%d",
			sh.Candidates, sh.Frequent, sh.Passes, sh.Rules, len(r.baskets))
	}
	return r.repeat.observe(c.facts)
}

func (r *runner) run(traced bool) (*result, error) {
	if err := os.MkdirAll(r.workdir, 0o755); err != nil {
		return nil, err
	}
	if traced {
		return r.runTraced()
	}
	e2e, ok, err := r.measure()
	if err != nil {
		return nil, err
	}
	if err := r.repeat.gate(r.workdir, r.spec.name, r.seed); err != nil {
		return nil, err
	}
	r.printReport()
	return &result{Correct: ok.failed == 0, Attempted: ok.attempted, Failed: ok.failed, Metrics: e2e}, nil
}

// tally counts checked operations.
type tally struct{ attempted, failed int }

// measure runs the workload untraced and returns its end-to-end metrics.
func (r *runner) measure() (map[string]metric, tally, error) {
	var setups []float64
	var cur *chainRun // the pipeline run whose fleet is served
	var chains []*chainRun
	var tl tally
	mining := r.spec.name != "serve-rw"
	l := newServeLoad(senders())
	// setUp prepares the run's inputs and, in serve-rw, runs a pipeline
	// whose fleet the following rounds serve.
	setUp := func() error {
		if cur != nil {
			l.release()
			cur.release()
			cur = nil
		}
		t0 := time.Now()
		if err := r.setup(); err != nil {
			return err
		}
		if !mining {
			c, err := r.chain(true)
			if err != nil {
				return err
			}
			cur = c
			chains = append(chains, c)
			l.use(c.f, c.full.Gen, c.m.rules, r.baskets)
		}
		setups = append(setups, since(t0))
		return nil
	}
	if mining {
		for i := 0; i < setupReps; i++ {
			if err := setUp(); err != nil {
				return nil, tl, err
			}
		}
	}

	// Timed window, in rounds.  A mining workload's round is a whole
	// pipeline run and then a serving round on its fresh fleet.  serve-rw's
	// set-ups are spread over its rounds, each building the fleet the next
	// rounds serve, and are not counted in the window; it ends the window
	// with the read ladder and with publishes beside reads.
	tail := 0.0
	if !mining {
		tail = tailShare * r.seconds
	}
	window := time.Now()
	setUpS := 0.0 // serve-rw set-up time inside the window
	served := func() float64 { return since(window) - setUpS }
	for rounds := 0; rounds < minRounds || served() < r.seconds-tail; rounds++ {
		if mining {
			if cur != nil {
				l.release()
				cur.release()
			}
			c, err := r.chain(r.spec.partitions > 0)
			if err != nil {
				return nil, tl, err
			}
			cur = c
			chains = append(chains, c)
			l.use(c.f, c.full.Gen, c.m.rules, r.baskets)
		} else if len(setups) < setupReps && served() >= float64(len(setups))*(r.seconds-tail)/setupReps {
			t := time.Now()
			if err := setUp(); err != nil {
				return nil, tl, err
			}
			setUpS += since(t)
		}
		if err := l.round(publishPairs); err != nil {
			cur.f.close()
			return nil, tl, err
		}
	}
	for len(setups) < setupReps { // only if the rounds ran far short of their time
		if err := setUp(); err != nil {
			return nil, tl, err
		}
	}
	defer cur.f.close()
	if !mining {
		runtime.GC()
		l.ladder()
		if err := l.churn(max(tail-2, 1), 0.25); err != nil {
			return nil, tl, err
		}
	}
	windowS := served()

	// Checks, outside the timed window.
	for _, c := range chains {
		tl.attempted++
		if err := r.checkChain(c, l.ora); err != nil {
			tl.failed++
			r.logf("FAIL %v", err)
		}
	}
	tl.attempted += l.attempted
	tl.failed += l.failed
	if l.firstFailure != nil {
		r.logf("FAIL %d of %d answers wrong; first: %v", l.failed, l.attempted, l.firstFailure)
	}
	tl.attempted++
	if err := r.checkSerial(cur.m); err != nil {
		tl.failed++
		r.logf("FAIL %v", err)
	}
	r.repeat.PublishDeltaBytes = l.deltaBytes

	var firstAnswer, ready, mineV, peak []float64
	for _, c := range chains {
		peak = append(peak, c.peakRSS)
		firstAnswer = append(firstAnswer, c.firstAnswerS)
		ready = append(ready, c.rulesReadyS)
		mineV = append(mineV, c.facts.MineVirtualS)
	}
	r.logf("window %.2fs: %d pipeline runs, %d serving rounds", windowS, len(chains), len(l.p50MS))
	r.logf("recommend_p99_ms %.4f ms (median of %d one-second windows, %d samples)", median(l.p99MS), len(l.p99MS), l.baseSamples)
	r.logf("delta publish alone %.4f s (%d v1→v2, %d v2→v1)", l.publishTime(), len(l.publishS[1]), len(l.publishS[0]))
	if !mining {
		r.logf("ladder p99 %v ms from %v req/s up", fmtFloats(l.stepP99MS), baseRate)
		r.logf("max_qps_slo %.1f req/s (p99 limit %.0f ms)", l.maxQPS, latencyLimitMS)
		r.logf("delta publish beside reads %.4f s (median of %d)", median(l.busyPublishS), len(l.busyPublishS))
		r.logf("recommend_p99_publish_ms %.4f ms (%d samples due during %d publishes)", l.p99PublishMS, l.publishSamples, len(l.busyPublishS))
	}
	r.logf("failed_ratio %.6g (%d of %d)", float64(tl.failed)/float64(tl.attempted), tl.failed, tl.attempted)
	return map[string]metric{
		"setup_s":          {trimmedMean(setups), "s"},
		"first_answer_s":   {trimmedMean(firstAnswer), "s"},
		"rules_ready_s":    {trimmedMean(ready), "s"},
		"mine_virtual_s":   {trimmedMean(mineV), "virtual_s"},
		"publish_s":        {l.publishTime(), "s"},
		"recommend_p50_ms": {trimmedMean(l.p50MS), "ms"},
		"peak_rss_mb":      {trimmedMean(peak), "MiB"},
	}, tl, nil
}

// minRounds is the fewest rounds a window runs, however long they take.
const minRounds = 3

// publishPairs is how many v1→v2, v2→v1 delta publish pairs a round runs.
const publishPairs = 2

// tailShare is the part of serve-rw's window spent on the read ladder and
// on reads beside publishes, after its rounds.
const tailShare = 0.3

// setup prepares a run's untimed inputs: the held-out basket pool and, for
// the in-memory mining workload, the resident dataset.  The pipeline runs
// of the other workloads draw their dataset again, as their first stage.
func (r *runner) setup() error {
	var err error
	var data *parapriori.Dataset
	if data, r.baskets, err = r.spec.sample(r.seed); err != nil {
		return err
	}
	if r.spec.name == "mine-dense" {
		r.data = data
	}
	return nil
}

// checkSerial compares a mined result with an in-memory serial mine of the
// same data by a different counting engine.
func (r *runner) checkSerial(m *mined) error {
	res, err := parapriori.Mine(m.data, parapriori.MineOptions{MinSupport: r.spec.minSupport, Engine: oracleEngine})
	if err != nil {
		return fmt.Errorf("serial oracle mine: %w", err)
	}
	want, err := resultSHA(res)
	if err != nil {
		return err
	}
	if want != m.sha {
		return fmt.Errorf("mined result %s differs from the serial %s mine %s", m.sha[:12], oracleEngine, want[:12])
	}
	return nil
}

// oracleEngine is the counting engine of the serial reference mine; it must
// differ from the default the workloads run.
const oracleEngine = "trie"

func (r *runner) logf(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

func (r *runner) printReport() {
	for _, l := range r.report {
		fmt.Println(l)
	}
}

func fmtFloats(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.2f", x)
	}
	return s + "]"
}
