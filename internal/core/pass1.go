package core

import (
	"fmt"

	"parapriori/internal/apriori"
	"parapriori/internal/cluster"
	"parapriori/internal/itemset"
	"parapriori/internal/obsv"
)

// firstPass computes the globally frequent items F1.  Every formulation
// does this identically: each processor array-counts the blocks of its
// source and a global reduction sums the per-item counts (there is no hash
// tree for k = 1).  Every processor records the identical, item-ordered F1.
func (r *run) firstPass(p *cluster.Proc, tr *procTrace) error {
	start := p.Clock()

	counts := make([]int64, r.numItems)
	var items int64
	src := r.openSource(p, true)
	defer src.close()
	err := scanLocal(p, src, func(blk []itemset.Transaction) {
		for _, t := range blk {
			for _, it := range t.Items {
				counts[it]++
			}
			items += int64(len(t.Items))
		}
	})
	if err != nil {
		return err
	}
	read := src.close()
	chargeScan(p, items, "scan")
	countStart := p.Clock()
	r.sec(p, "scan", start, r.readArgs(read, obsv.Int("k", 1))...)

	global := r.world.AllReduceInt64(p, "f1", counts)
	r.sec(p, "reduce", countStart, obsv.Int("k", 1))

	var f1 []apriori.Frequent
	for it, c := range global {
		if c >= r.minCount {
			f1 = append(f1, apriori.Frequent{Items: itemset.Itemset{itemset.Item(it)}, Count: c})
		}
	}
	return r.finishPass(p, tr, passLocal{
		k:          1,
		candidates: r.numItems,
		gridRows:   1,
		gridCols:   len(r.active),
		treeParts:  1,
		countTime:  countStart - start,
		clockStart: start,
		read:       read,
	}, f1)
}

// finishPass completes a pass on the rank: it appends the pass record,
// stamped with |F_k| and the end clock, and the level; checkpoints the level
// (free unless a fault plan or CheckpointDir asks for it); then emits the
// pass span, after the checkpoint charges so consecutive pass spans tile the
// rank's timeline.
func (r *run) finishPass(p *cluster.Proc, tr *procTrace, pl passLocal, level []apriori.Frequent, extra ...obsv.Attr) error {
	pl.frequent, pl.clockEnd = len(level), p.Clock()
	tr.passes = append(tr.passes, pl)
	tr.levels = append(tr.levels, level)
	ckStart := p.Clock()
	if err := r.checkpoint(p, level); err != nil {
		return err
	}
	r.sec(p, "checkpoint", ckStart, obsv.Int("k", int64(pl.k)))
	r.passSpan(p, tr, extra...)
	return nil
}

// genCandidates starts pass k: every processor generates the full C_k from
// F_{k-1} (apriori_gen is replicated, and charged on every processor).  It
// returns nil when MaxPasses ends the run first.
func (r *run) genCandidates(p *cluster.Proc, k int, prev []apriori.Frequent) []itemset.Itemset {
	if r.prm.Apriori.MaxPasses > 0 && k > r.prm.Apriori.MaxPasses {
		return nil
	}
	start := p.Clock()
	cands := apriori.Gen(itemsetsOf(prev))
	chargeGen(p, len(cands))
	r.sec(p, "candidate gen", start, obsv.Int("k", int64(k)))
	return cands
}

// exchangeFrequent runs the all-to-all broadcast of locally frequent
// itemsets over the given communicator and returns the merged, sorted
// global level.  Used by DD (over all processors) and by the grid engine
// (down each column).
func exchangeFrequent(p *cluster.Proc, cm *cluster.Comm, tag string, local []apriori.Frequent) []apriori.Frequent {
	gathered := cm.AllGather(p, tag, local, frequentBytes(local))
	var merged []apriori.Frequent
	for _, g := range gathered {
		part, ok := g.Payload.([]apriori.Frequent)
		if !ok {
			panic(fmt.Sprintf("core: exchangeFrequent %q: unexpected payload %T", tag, g.Payload))
		}
		merged = append(merged, part...)
	}
	sortFrequent(merged)
	return merged
}

// pruneLocal keeps the candidates whose global counts meet the threshold.
func pruneLocal(cands []itemset.Itemset, counts []int64, minCount int64) []apriori.Frequent {
	var out []apriori.Frequent
	for i, c := range cands {
		if counts[i] >= minCount {
			out = append(out, apriori.Frequent{Items: c, Count: counts[i]})
		}
	}
	return out
}
