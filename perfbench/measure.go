package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"parapriori/internal/obsv"
)

// spans records the benchmark's own real-clock spans around each call into a
// layer.  A nil *spans records nothing but still times each call, so
// untraced runs take the same code path.
type spans struct {
	col   *obsv.Collector
	clock *obsv.RealClock
}

// span is an open span: begin's result, closed by end.
type span struct {
	layer, call string
	start       float64
	wall        time.Time
}

func newSpans() *spans {
	col := obsv.NewCollector(obsv.ClockReal)
	return &spans{col: col, clock: obsv.NewRealClock(col)}
}

// begin opens a span for a call into layer.
func (s *spans) begin(layer, call string) span {
	o := span{layer: layer, call: call}
	if s != nil {
		o.start = s.clock.Now()
	}
	o.wall = time.Now()
	return o
}

// end closes a span and returns its wall duration in seconds.
func (s *spans) end(o span) float64 {
	d := time.Since(o.wall).Seconds()
	if s != nil {
		s.clock.Record(o.call, o.layer, 0, o.start)
	}
	return d
}

// selfTimes returns each layer's self time: the time its spans cover minus
// the part covered by spans nested inside them.
func selfTimes(t *obsv.Trace) map[string]float64 {
	out := make(map[string]float64)
	for i, sp := range t.Spans {
		self := sp.Dur()
		// Spans are ordered by start with enclosing spans first, so the
		// direct children of sp follow it until the first span that starts
		// at or after its end.
		reach := sp.Start
		for j := i + 1; j < len(t.Spans) && t.Spans[j].Start < sp.End; j++ {
			c := t.Spans[j]
			if c.Start >= reach {
				self -= c.Dur()
				reach = c.End
			}
		}
		out[sp.Cat] += self
	}
	return out
}

// allocDelta is the heap allocation work between two points.
type allocDelta struct {
	mallocs uint64
	bytes   uint64
}

func readAllocs() allocDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocDelta{mallocs: m.Mallocs, bytes: m.TotalAlloc}
}

func (a allocDelta) since(b allocDelta) allocDelta {
	return allocDelta{mallocs: a.mallocs - b.mallocs, bytes: a.bytes - b.bytes}
}

// resetPeakRSS restarts the kernel's peak-resident-set count, so the next
// peakRSSMiB covers only what runs in between.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's peak resident set from /proc.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// median of xs (which it sorts).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// trimmedMean drops the lowest and the highest quarter of xs and returns
// the mean of the rest.  A stray slow sample moves it no more than it moves
// the median, and where samples fall in two clusters (a pipeline run's
// mine lands near one of two times on a shared 2-core host) it moves
// smoothly, where a median of a few samples jumps from one cluster to the
// other.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := len(xs) / 4
	sum := 0.0
	for _, x := range xs[k : len(xs)-k] {
		sum += x
	}
	return sum / float64(len(xs)-2*k)
}

// quantile sorts xs and returns the q-quantile by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return obsv.Quantile(xs, q)
}
