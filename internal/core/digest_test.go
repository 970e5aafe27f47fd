package core

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parapriori/internal/apriori"
	"parapriori/internal/cluster"
	"parapriori/internal/obsv"
	"parapriori/internal/txstore"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/mine_digests.golden from the current source")

// TestMineDigestsGolden pins the bytes of a fixed set of mining runs against
// testdata/mine_digests.golden: the WriteResult output, every virtual clock
// (as float bits), the aggregate and per-pass stats, and the Perfetto and
// attribution exports.  Where the determinism test compares two runs of the
// same binary, this compares against the recorded output of an earlier
// tree, so a refactor of the mining data path that moves any charge, span
// or byte fails here.  Runs cover every in-memory formulation, the grid
// formulations over a partitioned store, and a crash-recovery run that
// adopts a lost rank's shards, each on T3E (free I/O) and on SP2 (charged
// I/O).  Deliberate changes re-bless with
// `go test -run TestMineDigestsGolden ./internal/core -update`.
func TestMineDigestsGolden(t *testing.T) {
	data := testData(t)
	dir := t.TempDir()
	if _, err := txstore.Spill(dir, data, txstore.Options{Partitions: 4, BlockBytes: 2048}); err != nil {
		t.Fatalf("spill: %v", err)
	}
	store, err := txstore.Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	type digestCase struct {
		name string
		prm  Params
		ooc  bool
	}
	var cases []digestCase
	for _, algo := range []Algorithm{CD, DD, DDComm, IDD, HD, HPA} {
		cases = append(cases, digestCase{name: "inmem/" + string(algo), prm: Params{Algo: algo, P: 6}})
	}
	for _, algo := range []Algorithm{CD, IDD, HD} {
		cases = append(cases, digestCase{name: "ooc/" + string(algo), prm: Params{Algo: algo, P: 6, Backend: BackendOOC, Store: store}, ooc: true})
	}
	cases = append(cases, digestCase{name: "recovery/hd", prm: Params{Algo: HD, P: 4,
		Faults: &cluster.FaultPlan{Seed: 2, Crashes: []cluster.Crash{{Rank: 1, At: 10e-3, Permanent: true}}}}})

	var out strings.Builder
	for _, m := range []cluster.Machine{cluster.T3E(), cluster.SP2()} {
		for _, c := range cases {
			prm := c.prm
			prm.Machine = m
			prm.Apriori = apriori.Params{MinSupport: 0.02}
			rec := obsv.NewCollector(obsv.ClockVirtual)
			prm.Recorder = rec
			in := data
			if c.ooc {
				in = nil
			}
			rep, err := Mine(in, prm)
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Name, c.name, err)
			}
			if prm.Faults != nil && (rep.Restarts == 0 || len(rep.LostRanks) != 1) {
				t.Fatalf("%s/%s: crash did not degrade the run (restarts %d, lost %v)", m.Name, c.name, rep.Restarts, rep.LostRanks)
			}
			var res, perfetto, attrib bytes.Buffer
			if err := apriori.WriteResult(&res, rep.Result); err != nil {
				t.Fatal(err)
			}
			tr := rec.Trace()
			if err := obsv.WriteTrace(&perfetto, tr); err != nil {
				t.Fatal(err)
			}
			if err := obsv.WriteAttribution(&attrib, obsv.Attribution(tr)); err != nil {
				t.Fatal(err)
			}
			clocks := make([]string, len(rep.Clocks))
			for i, c := range rep.Clocks {
				clocks[i] = fmt.Sprintf("%x", math.Float64bits(c))
			}
			key := strings.ToLower(m.Name) + "/" + c.name
			fmt.Fprintf(&out, "%s result %s\n", key, sha(res.Bytes()))
			fmt.Fprintf(&out, "%s response %x\n", key, math.Float64bits(rep.ResponseTime))
			fmt.Fprintf(&out, "%s clocks %s\n", key, strings.Join(clocks, ","))
			fmt.Fprintf(&out, "%s total %s\n", key, sha([]byte(fmt.Sprintf("%+v", rep.Total))))
			fmt.Fprintf(&out, "%s passes %s\n", key, sha([]byte(fmt.Sprintf("%+v", rep.Passes))))
			fmt.Fprintf(&out, "%s perfetto %s\n", key, sha(perfetto.Bytes()))
			fmt.Fprintf(&out, "%s attribution %s\n", key, sha(attrib.Bytes()))
		}
	}

	golden := filepath.Join("testdata", "mine_digests.golden")
	if *updateDigests {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading %s (run with -update to create it): %v", golden, err)
	}
	gotLines, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("digest count changed: got %d lines, want %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("digest changed:\n  got:  %s\n  want: %s", gotLines[i], wantLines[i])
		}
	}
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return fmt.Sprintf("%x", s[:])
}
