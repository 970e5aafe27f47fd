package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"parapriori"
	"parapriori/internal/apriori"
	"parapriori/internal/cluster"
	"parapriori/internal/countengine"
	"parapriori/internal/itemset"
	"parapriori/internal/rules"
	"parapriori/internal/serve"
)

// layers are the program's modules the traced run times, in report order.
var layers = []string{"datagen", "txstore", "countengine", "apriori", "cluster", "core", "rules", "serve", "distserve"}

// probeQueries is the number of direct queries each serving probe times.
const probeQueries = 20_000

// runTraced runs the workload's pipeline once untraced and once with the
// benchmark's own spans around every layer call, then probes each layer on the
// workload's own data.  It reports the per-layer metrics.
func (r *runner) runTraced() (*result, error) {
	if err := r.setup(); err != nil {
		return nil, err
	}
	gen := r.spec.name != "mine-dense"
	plain, err := r.chain(gen)
	if err != nil {
		return nil, err
	}
	plain.release()
	runtime.GC()

	r.sp = newSpans()
	c, err := r.chain(gen)
	if err != nil {
		return nil, err
	}
	defer c.f.close()
	ora := newOracle(c.m.rules)
	tl := tally{attempted: 1}
	fail := func(err error) {
		tl.failed++
		r.logf("FAIL %v", err)
	}
	if err := r.checkChain(c, ora); err != nil {
		fail(err)
	}

	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	m := c.m
	put("obsv.trace_overhead_ratio", c.firstAnswerS/plain.firstAnswerS, "ratio")

	data := m.data
	if !gen {
		t := r.sp.begin("datagen", "Generate")
		if _, _, err = r.spec.sample(r.seed); err != nil {
			return nil, err
		}
		m.genS = r.sp.end(t)
	}
	put("datagen.gen_s", m.genS, "s")

	if err := r.probeTxstore(m, data, put); err != nil {
		return nil, err
	}
	tl.attempted++
	if err := r.probeCountengine(m.report.Result, data, put); err != nil {
		fail(err)
	}
	tl.attempted++
	if err := r.probeApriori(m, data, put); err != nil {
		fail(err)
	}
	if err := r.probeCluster(m.report, put); err != nil {
		return nil, err
	}
	put("core.mine_wall_s", m.mineS, "s")
	put("core.wall_per_virtual", m.mineS/m.report.ResponseTime, "ratio")
	put("core.allocs", float64(m.mineAlloc.mallocs), "count")
	put("core.alloc_mb", float64(m.mineAlloc.bytes)/(1<<20), "MiB")
	put("core.rulegen_wall_s", m.rulesS, "s")

	t := r.sp.begin("rules", "Generate")
	serial, err := rules.Generate(m.report.Result, rules.Params{MinConfidence: r.spec.minConf})
	put("rules.generate_s", r.sp.end(t), "s")
	if err != nil {
		return nil, err
	}
	put("rules.count", float64(len(serial)), "count")
	tl.attempted++
	if len(serial) != len(m.rules) {
		fail(fmt.Errorf("serial rule generation found %d rules, the parallel one %d", len(serial), len(m.rules)))
	}

	r.probeServe(m.rules, put)
	n, bad, err := r.probeDistserve(c, ora, put)
	if err != nil {
		return nil, err
	}
	tl.attempted += n
	tl.failed += bad

	tr := r.sp.col.Trace()
	self := selfTimes(tr)
	for _, l := range layers {
		put(l+".self_s", self[l], "s")
	}
	path := filepath.Join(r.workdir, fmt.Sprintf("trace-%s-%d.json", r.spec.name, r.seed))
	if err := writeTrace(path, tr); err != nil {
		return nil, err
	}
	r.logf("trace: %s (%d spans)", path, len(tr.Spans))
	r.layerReport(out)
	r.printReport()
	return &result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: out}, nil
}

func writeTrace(path string, tr *parapriori.SpanTrace) error {
	var b bytes.Buffer
	if err := parapriori.WriteSpanTrace(&b, tr); err != nil {
		return err
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// layerReport prints each layer's self time above its metrics.
func (r *runner) layerReport(out map[string]metric) {
	names := make([]string, 0, len(out))
	for k := range out {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, l := range append(layers, "obsv") {
		r.logf("%s: self %.4f s", l, out[l+".self_s"].Value)
		for _, k := range names {
			if len(k) > len(l) && k[:len(l)+1] == l+"." && k != l+".self_s" {
				r.logf("  %-36s %14.6g %s", k, out[k].Value, out[k].Unit)
			}
		}
	}
}

// probeTxstore times a spill and a full decode scan of the workload's data,
// and reads the out-of-core read path's counters from an out-of-core mine:
// the workload's own, or for an in-memory workload one mine by CD on four
// ranks over the probe store.
func (r *runner) probeTxstore(m *mined, data *parapriori.Dataset, put func(string, float64, string)) error {
	dir := filepath.Join(r.workdir, "probe-store")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	t := r.sp.begin("txstore", "WritePartitionedDataset")
	store, err := parapriori.WritePartitionedDataset(dir, data, parapriori.PartitionOptions{Partitions: 4})
	spill := r.sp.end(t)
	if err != nil {
		return err
	}
	var size int64
	for _, p := range store.Manifest().Partitions {
		size += p.Bytes
	}
	if m.spillS > 0 {
		spill, size = m.spillS, m.bytes
	}
	put("txstore.spill_s", spill, "s")
	put("txstore.bytes", float64(size), "bytes")

	t = r.sp.begin("txstore", "Store.Blocks")
	txns := 0
	err = store.Blocks(func(b []itemset.Transaction) error { txns += len(b); return nil })
	scan := r.sp.end(t)
	if err != nil {
		return err
	}
	if txns != len(data.Transactions) {
		return fmt.Errorf("txstore scan read %d transactions, want %d", txns, len(data.Transactions))
	}
	put("txstore.scan_s", scan, "s")
	put("txstore.scan_mb_per_s", float64(size)/(1<<20)/scan, "MiB/s")

	read := m.report.Read
	if m.spillS == 0 {
		t = r.sp.begin("core", "MineParallel(ooc probe)")
		rep, err := parapriori.MineParallel(nil, parapriori.ParallelOptions{
			MineOptions: parapriori.MineOptions{MinSupport: r.spec.minSupport, Source: store},
			Algorithm:   parapriori.CD, Procs: 4, Backend: "ooc",
		})
		r.sp.end(t)
		if err != nil {
			return err
		}
		read = rep.Read
	}
	put("txstore.read_blocks", float64(read.Blocks), "count")
	put("txstore.read_stalls", float64(read.Stalls), "count")
	put("txstore.stall_ratio", float64(read.Stalls)/float64(read.Blocks), "ratio")
	put("txstore.decode_virtual_s", read.DecodeSeconds, "virtual_s")
	return nil
}

// probeCountengine replays the mined passes' candidate sets through every
// registered engine and checks each engine finds the mined frequent counts.
func (r *runner) probeCountengine(res *apriori.Result, data *parapriori.Dataset, put func(string, float64, string)) error {
	minCount := res.MinCount
	for _, name := range countengine.Names() {
		var build, k2, k3 float64
		var st countengine.Stats
		for k := 2; k <= len(res.Levels); k++ {
			prev := make([]itemset.Itemset, len(res.Levels[k-2]))
			for i, f := range res.Levels[k-2] {
				prev[i] = f.Items
			}
			cands := apriori.Gen(prev)
			t := r.sp.begin("countengine", name+".NewPass")
			b, err := countengine.New(name, countengine.Config{NumItems: data.NumItems})
			if err != nil {
				return err
			}
			e, err := b.NewPass(k, cands)
			build += r.sp.end(t)
			if err != nil {
				return err
			}
			t = r.sp.begin("countengine", name+".CountBlock")
			err = data.Blocks(func(block []itemset.Transaction) error {
				e.CountBlock(block, nil)
				return nil
			})
			counts := e.Counts()
			d := r.sp.end(t)
			if err != nil {
				return err
			}
			if k == 2 {
				k2 += d
			} else {
				k3 += d
			}
			st.Add(e.Stats())
			freq := 0
			for _, c := range counts {
				if c >= minCount {
					freq++
				}
			}
			if freq != len(res.Levels[k-1]) {
				return fmt.Errorf("engine %s pass %d: %d frequent, mined %d", name, k, freq, len(res.Levels[k-1]))
			}
		}
		put("countengine."+name+".build_s", build, "s")
		put("countengine."+name+".count_k2_s", k2, "s")
		put("countengine."+name+".count_k3plus_s", k3, "s")
		if name == countengine.Default {
			put("countengine.node_steps", float64(st.NodeSteps), "count")
			put("countengine.cand_checks", float64(st.CandChecks), "count")
			put("countengine.word_ops", float64(st.WordOps), "count")
		}
	}
	return nil
}

// probeApriori times a plain single-threaded mine of the same problem and
// checks it against the parallel result.
func (r *runner) probeApriori(m *mined, data *parapriori.Dataset, put func(string, float64, string)) error {
	t := r.sp.begin("apriori", "Mine")
	res, err := parapriori.Mine(data, parapriori.MineOptions{MinSupport: r.spec.minSupport})
	put("apriori.serial_mine_s", r.sp.end(t), "s")
	if err != nil {
		return err
	}
	sha, err := resultSHA(res)
	if err != nil {
		return err
	}
	if sha != m.sha {
		return fmt.Errorf("serial mine %s differs from the parallel mine %s", sha[:12], m.sha[:12])
	}
	return nil
}

// probeCluster reads the mine's communication accounting and times the
// emulator's messaging directly: page-size payloads passed round a ring of
// the workload's rank count, then an all-reduce of a |C2|-sized vector.
func (r *runner) probeCluster(rep *parapriori.Report, put func(string, float64, string)) error {
	put("cluster.messages", float64(rep.Total.MessagesSent), "count")
	put("cluster.bytes_sent", float64(rep.Total.BytesSent), "bytes")
	shares := rep.PhaseBreakdown()
	put("cluster.comm_share", shares["comm"], "ratio")
	put("cluster.idle_share", shares["idle"], "ratio")

	const page, rounds = 16 << 10, 200
	p := r.spec.procs
	payload := make([]byte, page)
	cl, err := cluster.New(p, cluster.T3E())
	if err != nil {
		return err
	}
	t := r.sp.begin("cluster", "Run(ring)")
	before := readAllocs()
	err = cl.Run(func(pr *cluster.Proc) error {
		next, prev := (pr.ID()+1)%p, (pr.ID()+p-1)%p
		for i := 0; i < rounds; i++ {
			pr.Send(next, "ring", payload, page)
			pr.Recv(prev, "ring")
		}
		return nil
	})
	ring := r.sp.end(t)
	allocs := readAllocs().since(before)
	if err != nil {
		return err
	}
	msgs := float64(p * rounds)
	put("cluster.msg_wall_us", ring/msgs*1e6, "us")
	put("cluster.allocs_per_msg", float64(allocs.mallocs)/msgs, "count")

	c2 := len(rep.Result.Levels[0]) * (len(rep.Result.Levels[0]) - 1) / 2
	cl, err = cluster.New(p, cluster.T3E())
	if err != nil {
		return err
	}
	t = r.sp.begin("cluster", "AllReduceInt64")
	err = cl.Run(func(pr *cluster.Proc) error {
		vec := make([]int64, c2)
		vec[pr.ID()%c2] = 1
		cl.World().AllReduceInt64(pr, "reduce", vec)
		return nil
	})
	put("cluster.allreduce_wall_ms", r.sp.end(t)*1000, "ms")
	return err
}

// probeServe times direct queries on one single-node server over the whole
// rule set, and compares the exact p99 with the server's histogram p99.
func (r *runner) probeServe(rs []rules.Rule, put func(string, float64, string)) {
	t := r.sp.begin("serve", "NewIndex")
	idx := serve.NewIndex(rs, serve.Options{})
	put("serve.index_build_s", r.sp.end(t), "s")
	srv := serve.NewServer(serve.Options{})
	defer srv.Close()
	srv.Publish(idx)
	lat := make([]float64, probeQueries)
	t = r.sp.begin("serve", "Server.Recommend")
	before := readAllocs()
	for i := range lat {
		q := time.Now()
		_, _ = srv.Recommend(r.baskets[i%len(r.baskets)], 0) // the oracle checks answers elsewhere
		lat[i] = float64(time.Since(q).Nanoseconds()) / 1e3
	}
	allocs := readAllocs().since(before)
	r.sp.end(t)
	met := srv.Metrics()
	put("serve.recommend_p50_us", quantile(lat, 0.5), "us")
	put("serve.recommend_p99_us", quantile(lat, 0.99), "us")
	put("serve.hist_p99_us", met.P99LatencyMicros, "us")
	put("serve.allocs_per_query", float64(allocs.mallocs)/probeQueries, "count")
	put("serve.cache_hit_ratio", met.CacheHitRate, "ratio")
}

// probeDistserve times in-process routing and HTTP round trips on the
// chain's fleet, and a delta publish each way between v1 and v2.  Every
// routed and HTTP answer is checked against the oracle.
func (r *runner) probeDistserve(c *chainRun, ora *oracle, put func(string, float64, string)) (attempted, failed int, err error) {
	router := c.f.cl.Router
	gen := map[uint64]int{c.full.Gen: 0}
	lat := make([]float64, probeQueries)
	var legs, hedges, retries int
	check := func(i int, ans []rules.Rule, g uint64, partial bool) {
		attempted++
		want := ora.expect(0, i%len(r.baskets), r.baskets[i%len(r.baskets)])
		if got := wireJSON(ans); partial || g != c.full.Gen || !bytes.Equal(got, want) {
			failed++
		}
	}
	t := r.sp.begin("distserve", "Router.Recommend")
	before := readAllocs()
	type routed struct {
		rules   []rules.Rule
		gen     uint64
		partial bool
	}
	answers := make([]routed, probeQueries)
	for i := range lat {
		q := time.Now()
		res, err := router.Recommend(r.baskets[i%len(r.baskets)], 0)
		lat[i] = float64(time.Since(q).Nanoseconds()) / 1e3
		if err != nil {
			return attempted, failed, fmt.Errorf("route: %w", err)
		}
		answers[i] = routed{res.Rules, res.Generation, res.Partial}
		legs += res.NodesQueried
		hedges += res.Hedges
		retries += res.Retries
	}
	allocs := readAllocs().since(before)
	r.sp.end(t)
	for i, a := range answers {
		check(i, a.rules, a.gen, a.partial)
	}
	routeP50 := quantile(lat, 0.5)
	put("distserve.route_p50_us", routeP50, "us")
	put("distserve.route_p99_us", quantile(lat, 0.99), "us")
	put("distserve.allocs_per_query", float64(allocs.mallocs)/probeQueries, "count")
	put("distserve.fanout_per_query", float64(legs)/probeQueries, "count")
	put("distserve.hedges_per_query", float64(hedges)/probeQueries, "count")
	put("distserve.retries_per_query", float64(retries)/probeQueries, "count")

	const httpQueries = 2000
	httpLat := make([]float64, httpQueries)
	var buf bytes.Buffer
	t = r.sp.begin("distserve", "GET /recommend")
	for i := range httpLat {
		q := time.Now()
		status, err := c.f.get(r.baskets[i], &buf)
		httpLat[i] = float64(time.Since(q).Nanoseconds()) / 1e3
		attempted++
		if err == nil {
			err = ora.check(status, buf.Bytes(), i, r.baskets[i], gen)
		}
		if err != nil {
			failed++
		}
	}
	r.sp.end(t)
	put("distserve.http_overhead_us", quantile(httpLat, 0.5)-routeP50, "us")

	put("distserve.publish_full_s", c.publishFullS, "s")
	put("distserve.publish_full_bytes", float64(c.full.Bytes), "bytes")
	v2 := perturb(c.m.rules)
	var deltaS []float64
	var deltaBytes int64
	for i, next := range [][]rules.Rule{v2, c.m.rules} {
		t = r.sp.begin("distserve", "Router.Publish(delta)")
		st, err := router.Publish(next, false)
		deltaS = append(deltaS, r.sp.end(t))
		if err != nil {
			return attempted, failed, fmt.Errorf("delta publish: %w", err)
		}
		if i == 0 {
			deltaBytes = st.Bytes
		}
	}
	put("distserve.publish_delta_s", median(deltaS), "s")
	put("distserve.publish_delta_bytes", float64(deltaBytes), "bytes")
	return attempted, failed, nil
}
