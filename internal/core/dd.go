package core

import (
	"fmt"

	"parapriori/internal/cluster"
	"parapriori/internal/itemset"
	"parapriori/internal/obsv"
	"parapriori/internal/partition"
)

// ddBody is the SPMD program of the Data Distribution algorithm [6] and of
// the paper's DD+comm ablation.  Candidates are partitioned round-robin —
// which balances counts but scatters first items, so no root filtering is
// possible — and every processor processes *all* N transactions against its
// M/P candidates, the redundant work Section III-B analyzes.
//
// Plain DD moves the database with the unstructured all-to-all of [6]:
// every page is sent point-to-point to every other processor, a pattern
// whose messages cross shared links (modeled as ring-distance congestion).
// DDComm replaces only the data movement with IDD's ring pipeline, keeping
// the round-robin partitioning — exactly the "DD+comm" series of Figure 10
// that isolates how much of IDD's win is communication vs partitioning.
func (r *run) ddBody(p *cluster.Proc) error {
	tr := &r.perProc[p.ID()]
	if err := r.firstPass(p, tr); err != nil {
		return err
	}
	prev := tr.levels[0]

	for k := 2; len(prev) > 0; k++ {
		clockStart := p.Clock()
		cands := r.genCandidates(p, k, prev)
		if len(cands) == 0 {
			break
		}

		parts := partition.RoundRobin(cands, r.prm.P)
		myCands := parts[p.ID()]
		counts := make([]int, r.prm.P)
		for i, part := range parts {
			counts[i] = len(part)
		}
		candImbalance := partition.Imbalance(counts)

		buildStart := p.Clock()
		eng, err := r.engB.NewPass(k, myCands)
		if err != nil {
			return fmt.Errorf("pass %d: %w", k, err)
		}
		chargeEngineBuild(p, eng.Stats())
		r.sec(p, "build", buildStart, obsv.Int("k", int64(k)))

		computeBefore := p.Stats().ComputeTime
		countStart := p.Clock()
		var bytesMoved int64
		if r.prm.Algo == DDComm {
			bytesMoved, _, err = r.ringCount(p, r.world, fmt.Sprintf("k%d/ring", k), counter(p, eng, nil))
		} else {
			bytesMoved, err = r.allToAllCount(p, fmt.Sprintf("k%d/a2a", k), counter(p, eng, nil))
		}
		if err != nil {
			return fmt.Errorf("pass %d: %w", k, err)
		}
		countTime := p.Stats().ComputeTime - computeBefore
		r.sec(p, "count", countStart, obsv.Int("k", int64(k)))

		exStart := p.Clock()
		frequentLocal := pruneLocal(myCands, engineCounts(p, eng), r.minCount)
		level := exchangeFrequent(p, r.world, fmt.Sprintf("k%d/freq", k), frequentLocal)
		r.sec(p, "exchange", exStart, obsv.Int("k", int64(k)))

		err = r.finishPass(p, tr, passLocal{
			k:             k,
			candidates:    len(cands),
			localCands:    len(myCands),
			gridRows:      r.prm.P,
			gridCols:      1,
			treeParts:     1,
			tree:          eng.Stats().TreeStats(),
			bytesMoved:    bytesMoved,
			countTime:     countTime,
			clockStart:    clockStart,
			candImbalance: candImbalance,
		}, level)
		if err != nil {
			return err
		}
		prev = level
	}
	return nil
}

// allToAllCount implements DD's original data movement: each processor
// reads its local pages one at a time, processes each, and scatters it to
// every other processor with P-1 point-to-point sends; remote pages are
// drained and processed as they arrive.  The messages carry a congestion
// factor equal to the sender–receiver ring distance (see the cluster
// package comment), which is what makes this pattern take "significantly
// more than O(N) time" on sparse interconnects.
func (r *run) allToAllCount(p *cluster.Proc, tag string, process func([]itemset.Transaction)) (int64, error) {
	me, procs := p.ID(), r.prm.P
	src := r.openSource(p, procs == 1)
	defer src.close()
	if procs == 1 {
		return 0, scanLocal(p, src, process)
	}
	// Agree on per-processor page counts so receive loops terminate.
	gathered := r.world.AllGather(p, tag+"/npages", src.blocks, 8)
	pageCount := make([]int, procs)
	maxPages := 0
	for _, g := range gathered {
		n := g.Payload.(int)
		pageCount[g.Rank] = n
		if n > maxPages {
			maxPages = n
		}
	}

	var sent int64
	for round := 0; round < maxPages; round++ {
		if round < src.blocks {
			page, err := src.next(p)
			if err != nil {
				return sent, err
			}
			b := pageBytesOf(page)
			for dst := 0; dst < procs; dst++ {
				if dst == me {
					continue
				}
				dist := cluster.RingDistance(me, dst, procs)
				// DD's original scatter blocks the sender for each of its
				// P-1 copies; IDD's ring pipeline is the fix (Section III-C).
				p.SendBlocking(dst, tag, page, b, float64(dist))
				sent += int64(b)
			}
			// Ties are broken in favor of remote buffers in [6], but the
			// local page is processed in the same round either way.
			process(page)
		}
		for from := 0; from < procs; from++ {
			if from == me || round >= pageCount[from] {
				continue
			}
			msg := p.Recv(from, tag)
			process(msg.Payload.([]itemset.Transaction))
		}
	}
	return sent, nil
}
