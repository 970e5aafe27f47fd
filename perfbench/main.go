// Command perfbench is the repository's wall-clock benchmark.  It drives
// the public entry points of datagen, txstore, core, rules, serve and
// distserve through one of three workloads, checks every output against an
// independent oracle, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as one JSON line.  See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"parapriori"
)

var workloads = map[string]spec{
	"pipeline-ooc": {
		gen:        quest(100_000, 400, 12, 4, 300),
		algo:       parapriori.CD,
		procs:      4,
		partitions: 4,
		minSupport: 0.01,
		minConf:    0.5,
		nodes:      4,
		replicas:   2,
	},
	"mine-dense": {
		gen:        quest(50_000, 80, 10, 4, 60),
		algo:       parapriori.HD,
		procs:      16,
		minSupport: 0.015,
		minConf:    0.8,
		nodes:      4,
		replicas:   2,
	},
	"serve-rw": {
		gen:        quest(20_000, 400, 12, 4, 300),
		algo:       parapriori.CD,
		procs:      4,
		minSupport: 0.01,
		minConf:    0.5,
		nodes:      4,
		replicas:   2,
		shards:     32,
	},
}

func quest(n, items int, tlen, plen float64, patterns int) parapriori.GenOptions {
	g := parapriori.DefaultGen()
	g.NumTransactions, g.NumItems, g.AvgTxnLen, g.AvgPatternLen, g.NumPatterns = n, items, tlen, plen, patterns
	return g
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: pipeline-ooc, mine-dense or serve-rw")
	seed := flag.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := flag.Float64("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/work", "scratch directory for spilled data, traces and repeat records")
	flag.Parse()
	s, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	s.name = *name
	r := &runner{spec: s, seed: *seed, seconds: *seconds, workdir: *workdir}
	r.logf("%s", fingerprint())
	r.logf("workload %s seed %d seconds %g trace %d", s.name, *seed, *seconds, *trace)
	res, err := r.run(*trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", s.name, *seed, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// fingerprint describes the machine and build a run measured.
func fingerprint() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				commit = kv.Value
			}
		}
	}
	build := "unknown"
	if d, err := binaryDigest(); err == nil {
		build = d[:16]
	}
	return fmt.Sprintf("machine: nproc=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s build=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpu, runtime.Version(), commit, build)
}

// senders is the number of load-generator goroutines and keep-alive
// connections: one per processor the Go runtime schedules on.
func senders() int { return runtime.GOMAXPROCS(0) }
