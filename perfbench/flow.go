package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"parapriori"
	"parapriori/internal/distserve"
	"parapriori/internal/itemset"
	"parapriori/internal/rules"
	"parapriori/internal/serve"
)

// spec is one workload's problem: what is generated, how it is mined and
// what fleet serves the rules.  Every engine, serving and publishing option
// not named here is left at its default, so a change of default shows.
type spec struct {
	name       string
	gen        parapriori.GenOptions
	algo       parapriori.Algorithm
	procs      int
	partitions int // > 0: spill to this many partitions and mine out of core
	minSupport float64
	minConf    float64
	nodes      int
	replicas   int
	shards     int
}

// populationSeed fixes the Quest population of every workload.  On this
// generator the pattern table alone moves the rule count five- to tenfold
// between seeds, and even which transactions of one population are mined
// moves it by a sixth (mine-dense: 74k rules for one draw, 63k for
// another), which would make the spread across seeds a property of the
// generator rather than of the code.  The run's seed instead orders the
// mined transactions, which moves how they fall on ranks and partitions,
// and draws the query baskets.
const populationSeed = 1

// sample draws a run's inputs from the workload's population of
// N + basketPool transactions: the first N, in a seeded order and
// renumbered in that order, are the mined dataset; the other basketPool,
// in another seeded order, give the basket pool as 1- to 6-item prefixes.
// What is mined is the same for every seed, so its shape is too.
func (s spec) sample(seed int64) (*parapriori.Dataset, [][]itemset.Item, error) {
	g := s.gen
	g.Seed = populationSeed
	n := g.NumTransactions
	g.NumTransactions += basketPool
	pop, err := parapriori.Generate(g)
	if err != nil {
		return nil, nil, fmt.Errorf("generate: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	txns := make([]itemset.Transaction, n)
	for i, j := range rng.Perm(n) {
		txns[i] = pop.Transactions[j]
		txns[i].ID = int64(i)
	}
	held := pop.Transactions[n:]
	baskets := make([][]itemset.Item, 0, len(held))
	for i, j := range rng.Perm(len(held)) {
		items := held[j].Items
		if len(items) == 0 {
			continue
		}
		baskets = append(baskets, items[:min(1+i%6, len(items))])
	}
	return parapriori.NewDataset(txns), baskets, nil
}

// mined is what one pass through the mining half of the pipeline produced,
// with the wall time of each stage.
type mined struct {
	report    *parapriori.Report
	data      *parapriori.Dataset // the mined transactions
	rules     []rules.Rule
	sha       string // SHA-256 of WriteResult
	bytes     int64  // on-disk store size, out-of-core runs only
	genS      float64
	spillS    float64
	mineS     float64
	rulesS    float64
	mineAlloc allocDelta
}

func (m *mined) shape() shape {
	cands := 0
	for _, p := range m.report.Passes {
		cands += p.Candidates
	}
	return shape{
		Candidates: cands,
		Frequent:   m.report.Result.NumFrequent(),
		Passes:     len(m.report.Passes),
		Rules:      len(m.rules),
	}
}

// shape is the size of a mined workload; it must repeat exactly per seed.
type shape struct {
	Candidates int `json:"candidates"`
	Frequent   int `json:"frequent"`
	Passes     int `json:"passes"`
	Rules      int `json:"rules"`
}

// mineStages runs (generate →) (spill →) mine → rules.  When data is nil
// the run's inputs are drawn first, as the generation stage.
func mineStages(s spec, seed int64, dir string, data *parapriori.Dataset, sp *spans) (*mined, error) {
	m := &mined{}
	opt := parapriori.ParallelOptions{
		MineOptions: parapriori.MineOptions{MinSupport: s.minSupport},
		Algorithm:   s.algo,
		Procs:       s.procs,
	}
	if data == nil {
		t := sp.begin("datagen", "Generate")
		var err error
		if data, _, err = s.sample(seed); err != nil {
			return nil, err
		}
		m.genS = sp.end(t)
	}
	m.data = data
	opt.Source = data
	if s.partitions > 0 {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		t := sp.begin("txstore", "WritePartitionedDataset")
		store, err := parapriori.WritePartitionedDataset(dir, data, parapriori.PartitionOptions{Partitions: s.partitions})
		if err != nil {
			return nil, fmt.Errorf("spill: %w", err)
		}
		m.spillS = sp.end(t)
		for _, p := range store.Manifest().Partitions {
			m.bytes += p.Bytes
		}
		opt.Source = store
		opt.Backend = "ooc"
	}

	t := sp.begin("core", "MineParallel")
	before := readAllocs()
	rep, err := parapriori.MineParallel(nil, opt)
	if err != nil {
		return nil, fmt.Errorf("mine: %w", err)
	}
	m.mineAlloc = readAllocs().since(before)
	m.mineS = sp.end(t)
	m.report = rep

	t = sp.begin("core", "GenerateRulesOn")
	rr, err := parapriori.GenerateRulesOn(rep.Result, parapriori.RuleGenOptions{Procs: s.procs, MinConfidence: s.minConf})
	if err != nil {
		return nil, fmt.Errorf("rules: %w", err)
	}
	m.rulesS = sp.end(t)
	m.rules = rr.Rules

	if m.sha, err = resultSHA(rep.Result); err != nil {
		return nil, err
	}
	return m, nil
}

func resultSHA(res *parapriori.Result) (string, error) {
	h := sha256.New()
	if err := parapriori.WriteResult(h, res); err != nil {
		return "", fmt.Errorf("write result: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// fleet is an in-process serving tier behind the router's HTTP handler on
// loopback, queried over keep-alive connections.
type fleet struct {
	cl     *distserve.Cluster
	srv    *http.Server
	served chan error
	url    string
	client *http.Client
}

func startFleet(s spec, conns int) (*fleet, error) {
	cl, err := distserve.NewCluster(s.nodes, distserve.Options{Replicas: s.replicas, Shards: s.shards})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cl.Close()
		return nil, err
	}
	f := &fleet{
		cl:     cl,
		srv:    &http.Server{Handler: cl.Router.Handler(nil)},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
		}},
	}
	go func() { f.served <- f.srv.Serve(ln) }()
	return f, nil
}

func (f *fleet) close() {
	f.client.CloseIdleConnections()
	_ = f.srv.Close() // Serve's error below is the one that matters
	<-f.served
	f.cl.Close()
}

// get issues one /recommend and returns the status and body.
func (f *fleet) get(basket []itemset.Item, buf *bytes.Buffer) (int, error) {
	var q strings.Builder
	q.WriteString(f.url)
	q.WriteString("/recommend?items=")
	for i, it := range basket {
		if i > 0 {
			q.WriteByte(',')
		}
		q.WriteString(strconv.Itoa(int(it)))
	}
	resp, err := f.client.Get(q.String())
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// answer is a decoded /recommend body.
type answer struct {
	Generation uint64          `json:"generation"`
	Rules      json.RawMessage `json:"rules"`
	Mixed      bool            `json:"mixed"`
	Partial    bool            `json:"partial"`
}

// wireRule mirrors the serving tier's JSON rule encoding field for field,
// so an expected answer marshals to exactly the bytes the router sends.
type wireRule struct {
	Antecedent []itemset.Item `json:"antecedent"`
	Consequent []itemset.Item `json:"consequent"`
	Count      int64          `json:"count"`
	Support    float64        `json:"support"`
	Confidence float64        `json:"confidence"`
	Lift       float64        `json:"lift"`
	Leverage   float64        `json:"leverage"`
}

// oracle answers baskets with a single-node index per published rule-set
// version — the reference every HTTP answer is checked against.
type oracle struct {
	idx  []*serve.Index
	memo map[[2]int][]byte
}

func newOracle(versions ...[]rules.Rule) *oracle {
	o := &oracle{memo: make(map[[2]int][]byte)}
	for _, rs := range versions {
		o.idx = append(o.idx, serve.NewIndex(rs, serve.Options{}))
	}
	return o
}

// expect returns the JSON rules array a correct answer carries.
func (o *oracle) expect(version, basketID int, basket []itemset.Item) []byte {
	key := [2]int{version, basketID}
	if b, ok := o.memo[key]; ok {
		return b
	}
	b := wireJSON(o.idx[version].Recommend(itemset.New(basket...), serve.DefaultK))
	o.memo[key] = b
	return b
}

// wireJSON encodes rules as the serving tier's JSON rules array.
func wireJSON(rs []rules.Rule) []byte {
	ws := make([]wireRule, len(rs))
	for i, r := range rs {
		ws[i] = wireRule{r.Antecedent, r.Consequent, r.Count, r.Support, r.Confidence, r.Lift, r.Leverage}
	}
	b, _ := json.Marshal(ws) // plain structs of numbers and slices always marshal
	return b
}

// check verifies one recorded HTTP answer; versionOf maps a cluster
// generation to the rule-set version it installed.
func (o *oracle) check(status int, body []byte, basketID int, basket []itemset.Item, versionOf map[uint64]int) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("decode answer: %w", err)
	}
	if a.Partial {
		return fmt.Errorf("partial answer for basket %v", basket)
	}
	v, ok := versionOf[a.Generation]
	if !ok {
		return fmt.Errorf("answer from unknown generation %d", a.Generation)
	}
	var got bytes.Buffer
	if err := json.Compact(&got, a.Rules); err != nil {
		return fmt.Errorf("decode rules: %w", err)
	}
	if bytes.Equal(got.Bytes(), o.expect(v, basketID, basket)) {
		return nil
	}
	// A query that straddled a cut-over may carry the next generation's
	// rules for some shards; it is correct if it equals either version.
	if a.Mixed {
		if w, ok := versionOf[a.Generation+1]; ok && bytes.Equal(got.Bytes(), o.expect(w, basketID, basket)) {
			return nil
		}
	}
	return fmt.Errorf("basket %v at generation %d: answer differs from the single-node index", basket, a.Generation)
}

// perturb derives a second rule-set version deterministically: about one
// antecedent group in ten is dropped and one in ten has its confidences
// nudged, so a delta publish ships about a fifth of the groups.
func perturb(rs []rules.Rule) []rules.Rule {
	out := make([]rules.Rule, 0, len(rs))
	for _, r := range rs {
		h := fnv.New64a()
		h.Write([]byte(r.Antecedent.Key()))
		switch h.Sum64() % 10 {
		case 0:
		case 1:
			r.Confidence *= 0.97
			out = append(out, r)
		default:
			out = append(out, r)
		}
	}
	return out
}

// placementSHA fingerprints the fleet's replica placement.
func placementSHA(r *distserve.Router) string {
	h := sha256.New()
	for shard, ids := range r.Replicas() {
		fmt.Fprintf(h, "%d:%s\n", shard, strings.Join(ids, ","))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }
