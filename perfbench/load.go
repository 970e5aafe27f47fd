package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"parapriori/internal/distserve"
	"parapriori/internal/itemset"
	"parapriori/internal/rules"
)

// sample is one open-loop request: which basket, when it was due, and how
// long after its due time the answer was complete.
type sample struct {
	basket int
	due    float64 // seconds after the phase started
	lat    float64 // seconds from due to the full body
	status int
	body   []byte
	err    error
}

// openLoop sends requests on a fixed schedule of rate per second for dur
// seconds from a fixed pool of sender goroutines, one keep-alive connection
// each.  A sender that falls behind sends late and the lateness counts in
// the latency, so a stall is charged to every request it delays.
func (f *fleet) openLoop(baskets [][]itemset.Item, first int, rate, dur float64, senders int) []sample {
	n := int(rate * dur)
	out := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := float64(i) / rate
				if wait := time.Duration(due*1e9) - time.Since(t0); wait > 0 {
					time.Sleep(wait)
				}
				b := (first + i) % len(baskets)
				status, err := f.get(baskets[b], &buf)
				out[i] = sample{
					basket: b,
					due:    due,
					lat:    time.Since(t0).Seconds() - due,
					status: status,
					body:   bytes.Clone(buf.Bytes()),
					err:    err,
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// baseRate is the rate, req/s, of the base-rate windows and of the reads
// beside publishes.
const baseRate = 1000

// A percentile is reported only from windows with at least ten samples
// beyond it: every window holds at least stepSamples requests.
const stepSamples = 1500

// latencyLimitMS is the p99 a ladder rate must meet to count towards
// max_qps_slo.  It sits well above the base-rate p99 (3-11 ms on the
// reference box), so a rate fails when its queue grows, not on one stall.
const latencyLimitMS = 25.0

// ladderRates are the read ladder's rates above the base rate, req/s.
var ladderRates = []float64{2000, 3000, 4000, 5000, 6000, 7000, 8000, 10000}

// serveLoad is the serving half of a run.  Its rounds (a one-second
// base-rate window, then delta publishes with nothing beside them) run on
// whichever fleet is current, so every sample of a metric is spread over
// the whole window rather than taken in one block of it.  serve-rw ends
// with the read ladder and with publishes beside reads.  Every answer is
// checked against the single-node oracle by the generation it reports.
type serveLoad struct {
	ora     *oracle // built at the first check after use
	baskets [][]itemset.Item
	senders int
	cursor  int // pool index of the next basket queried

	f         *fleet
	v         [2][]rules.Rule // v1 as mined and v2 = perturb(v1)
	versionOf map[uint64]int  // the current fleet's generations → index into v
	served    int             // index into v of what the current fleet serves

	p50MS, p99MS []float64 // per base-rate window
	baseSamples  int
	publishS     [2][]float64 // delta publishes alone, by the version installed
	deltaBytes   []int64      // the run's first delta publish each way

	stepP99MS      []float64 // ladder: the base-rate p99, then each step's
	maxQPS         float64
	busyPublishS   []float64 // delta publishes beside reads
	p99PublishMS   float64
	publishSamples int

	attempted, failed int
	firstFailure      error
}

func newServeLoad(senders int) *serveLoad { return &serveLoad{senders: senders} }

// use moves the load to a fleet that serves v1 as generation gen, queried
// with baskets (every set-up of a run draws the same pool).
func (l *serveLoad) use(f *fleet, gen uint64, v1 []rules.Rule, baskets [][]itemset.Item) {
	l.f, l.v, l.versionOf, l.served = f, [2][]rules.Rule{v1, perturb(v1)}, map[uint64]int{gen: 0}, 0
	l.baskets = baskets
}

// release lets go of the current fleet, its rules and the oracle, so none
// of them is resident while the next pipeline run measures its peak.
func (l *serveLoad) release() { l.f, l.v, l.versionOf, l.ora = nil, [2][]rules.Rule{}, nil, nil }

// check verifies answers, outside the timing of the step that recorded
// them, and drops them, so retained bodies do not grow the heap the fleet
// shares.
func (l *serveLoad) check(ss []sample) {
	if l.ora == nil {
		l.ora = newOracle(l.v[0], l.v[1])
	}
	for _, s := range ss {
		l.attempted++
		err := s.err
		if err == nil {
			err = l.ora.check(s.status, s.body, s.basket, l.baskets[s.basket], l.versionOf)
		}
		if err != nil {
			l.failed++
			if l.firstFailure == nil {
				l.firstFailure = err
			}
		}
	}
}

// read sends open-loop reads at rate for dur seconds, checks them and
// returns their latencies in milliseconds.
func (l *serveLoad) read(rate, dur float64) []float64 {
	ss := l.f.openLoop(l.baskets, l.cursor, rate, dur, l.senders)
	l.cursor += len(ss)
	l.check(ss)
	return latenciesMS(ss)
}

// round is one base-rate window from a collected heap, then pairs of delta
// publishes alone, each from a collected heap, so publish_s times the
// publish and not reads beside it or the previous publish's garbage.  Each
// pair installs v2 and then v1; the two directions ship different volumes,
// so each keeps its own samples.
func (l *serveLoad) round(pairs int) error {
	runtime.GC()
	lats := l.read(baseRate, 1)
	l.p50MS = append(l.p50MS, quantile(lats, 0.5))
	l.p99MS = append(l.p99MS, quantile(lats, 0.99))
	l.baseSamples += len(lats)
	for p := 0; p < 2*pairs; p++ {
		runtime.GC()
		t := time.Now()
		st, err := l.publish()
		d := time.Since(t).Seconds()
		if err != nil {
			return err
		}
		l.publishS[l.served] = append(l.publishS[l.served], d)
		if len(l.deltaBytes) < 2 {
			l.deltaBytes = append(l.deltaBytes, st.Bytes)
		}
	}
	return nil
}

// publish installs the version the fleet does not serve, as a delta.
func (l *serveLoad) publish() (distserve.PublishStats, error) {
	ver := 1 - l.served
	st, err := l.f.cl.Router.Publish(l.v[ver], false)
	if err != nil {
		return st, fmt.Errorf("delta publish of v%d: %w", ver+1, err)
	}
	l.versionOf[st.Gen], l.served = ver, ver
	return st, nil
}

// publishTime is the mean over the two directions of their delta publish
// times' trimmed means.
func (l *serveLoad) publishTime() float64 {
	return (trimmedMean(l.publishS[0]) + trimmedMean(l.publishS[1])) / 2
}

// ladder runs reads at each ladder rate up to the first whose p99 misses
// the latency limit, and interpolates the highest rate within it.
func (l *serveLoad) ladder() {
	rates := []float64{baseRate}
	l.stepP99MS = []float64{median(l.p99MS)}
	for _, rate := range ladderRates {
		rates = append(rates, rate)
		l.stepP99MS = append(l.stepP99MS, quantile(l.read(rate, stepSamples/rate), 0.99))
		if l.stepP99MS[len(l.stepP99MS)-1] > latencyLimitMS {
			break
		}
	}
	l.maxQPS = maxRateWithin(rates, l.stepP99MS, latencyLimitMS)
}

// churn reads at the base rate for dur seconds while a delta publish
// starts every `every` seconds, and takes the p99 of the reads due while a
// publish was in flight.
func (l *serveLoad) churn(dur, every float64) error {
	type window struct{ from, to float64 }
	var windows []window
	var pubErr error
	done := make(chan []sample, 1)
	t0 := time.Now()
	go func() { done <- l.f.openLoop(l.baskets, l.cursor, baseRate, dur, l.senders) }()
	for p := 0; float64(p+1)*every < dur; p++ {
		if wait := time.Duration(float64(p+1)*every*1e9) - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		from := time.Since(t0).Seconds()
		_, err := l.publish()
		to := time.Since(t0).Seconds()
		if err != nil {
			pubErr = err
			break
		}
		windows = append(windows, window{from, to})
		l.busyPublishS = append(l.busyPublishS, to-from)
	}
	churn := <-done
	l.cursor += len(churn)
	if pubErr != nil {
		return pubErr
	}
	l.check(churn)
	var during []float64
	for _, s := range churn {
		for _, w := range windows {
			if s.due >= w.from && s.due < w.to {
				during = append(during, s.lat*1000)
				break
			}
		}
	}
	l.p99PublishMS, l.publishSamples = quantile(during, 0.99), len(during)
	return nil
}

func latenciesMS(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.lat * 1000
	}
	return out
}

// maxRateWithin returns the highest ladder rate whose p99 meets the limit,
// interpolated towards the first rate that misses it, so the figure moves
// smoothly with latency instead of jumping a whole step.  Latency is timed
// from each request's due time, so a growing backlog fails the step.
func maxRateWithin(rates, p99 []float64, limit float64) float64 {
	best := 0.0
	for i := range rates {
		if p99[i] > limit {
			if i > 0 {
				frac := (limit - p99[i-1]) / (p99[i] - p99[i-1])
				best = rates[i-1] + frac*(rates[i]-rates[i-1])
			} else {
				best = rates[0] * limit / p99[0]
			}
			return best
		}
		best = rates[i]
	}
	return best
}
