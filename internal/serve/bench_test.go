package serve

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"parapriori/internal/itemset"
	"parapriori/internal/obsv"
)

// BenchmarkRecommend measures serving latency on a 10⁵-rule index: the
// cache-cold path (every basket unique per iteration window), the cache-hit
// path, and the pooled fan-out path.  The p99 each sub-benchmark reports
// comes from the server's own /metrics histogram — the same surface
// production monitoring reads.
func BenchmarkRecommend(b *testing.B) {
	const (
		nRules  = 100_000
		nItems  = 2_000
		baskets = 4096
	)
	rs := synthRules(nRules, nItems, 42)
	ix := NewIndex(rs, Options{Shards: 8})
	rng := rand.New(rand.NewSource(7))
	qs := make([][]itemset.Item, baskets)
	for i := range qs {
		raw := make([]itemset.Item, 8)
		for j := range raw {
			raw[j] = itemset.Item(rng.Intn(nItems))
		}
		qs[i] = raw
	}

	// run warms the server with one pass over every basket (faulting the
	// fresh index's pages in — "cache cold" means the query cache, not the
	// first touch of 100k rules), resets the metrics so warm-up traffic
	// stays out of the reported percentiles, and measures.
	run := func(b *testing.B, s *Server) {
		b.Helper()
		for _, q := range qs {
			if _, err := s.Recommend(q, 10); err != nil {
				b.Fatal(err)
			}
		}
		s.met.reset()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Recommend(qs[i%len(qs)], 10); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		m := s.Metrics()
		b.ReportMetric(m.P99LatencyMicros, "p99-µs")
		b.ReportMetric(m.P50LatencyMicros, "p50-µs")
	}

	b.Run("miss", func(b *testing.B) {
		s := NewServer(Options{Shards: 8, CacheSize: -1}) // cache disabled: every query cold
		defer s.Close()
		s.Publish(ix)
		run(b, s)
	})

	b.Run("hit", func(b *testing.B) {
		s := NewServer(Options{Shards: 8, CacheSize: baskets})
		defer s.Close()
		s.Publish(ix)
		run(b, s) // the warm-up pass fills the cache, so the timed pass hits
	})

	b.Run("pooled-miss", func(b *testing.B) {
		s := NewServer(Options{Shards: 8, Workers: 8, CacheSize: -1})
		defer s.Close()
		s.Publish(ix)
		run(b, s)
	})
}

// TestRecommendLatencyBudget is the testable floor under the benchmark: on
// the 10⁵-rule index a cold query must come in far under a millisecond at
// the p99, and the cache-hit path must beat the miss path by ≥ 5×.  The
// thresholds are deliberately loose multiples of what the benchmark
// measures (~tens of µs cold, ~1 µs hot) so a slow CI box cannot flake it,
// while a complexity regression — say the index degrading to a full rule
// scan — still trips it.
func TestRecommendLatencyBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("latency budget needs the full-size index")
	}
	rs := synthRules(100_000, 2_000, 42)
	ix := NewIndex(rs, Options{Shards: 8})
	rng := rand.New(rand.NewSource(9))
	qs := make([][]itemset.Item, 512)
	for i := range qs {
		raw := make([]itemset.Item, 8)
		for j := range raw {
			raw[j] = itemset.Item(rng.Intn(2_000))
		}
		qs[i] = raw
	}

	// One untimed pass faults the freshly built index's pages in — the
	// budget is about steady-state query cost, not first-touch page faults —
	// then three timed passes give enough samples that a stray scheduler
	// preemption cannot own the p99 rank.  Each call is timed and the p99
	// is the exact nearest-rank quantile of the samples: the server's
	// power-of-two histogram would read any p99 in (512, 1000)µs as 1024µs.
	miss := NewServer(Options{Shards: 8, CacheSize: -1})
	defer miss.Close()
	miss.Publish(ix)
	for _, q := range qs {
		if _, err := miss.Recommend(q, 10); err != nil {
			t.Fatal(err)
		}
	}
	samples := make([]float64, 0, 3*len(qs))
	for pass := 0; pass < 3; pass++ {
		for _, q := range qs {
			start := time.Now()
			if _, err := miss.Recommend(q, 10); err != nil {
				t.Fatal(err)
			}
			samples = append(samples, float64(time.Since(start).Nanoseconds())/1e3)
		}
	}
	sort.Float64s(samples)
	if p99 := obsv.Quantile(samples, 0.99); p99 >= 1000 {
		t.Errorf("cold p99 = %.0fµs, budget < 1000µs", p99)
	}

	hit := NewServer(Options{Shards: 8, CacheSize: len(qs)})
	defer hit.Close()
	hit.Publish(ix)
	warm := time.Now()
	for _, q := range qs {
		if _, err := hit.Recommend(q, 10); err != nil {
			t.Fatal(err)
		}
	}
	missElapsed := time.Since(warm)
	hot := time.Now()
	for _, q := range qs {
		if _, err := hit.Recommend(q, 10); err != nil {
			t.Fatal(err)
		}
	}
	hitElapsed := time.Since(hot)
	if hitElapsed*5 > missElapsed {
		t.Errorf("cache-hit path not ≥5× faster: hits %v vs misses %v", hitElapsed, missElapsed)
	}
}
