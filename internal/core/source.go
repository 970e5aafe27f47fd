package core

import (
	"fmt"
	"io"

	"parapriori/internal/cluster"
	"parapriori/internal/itemset"
	"parapriori/internal/obsv"
	"parapriori/internal/txstore"
)

// ExecBackend selects how the SPMD bodies get at the transactions.
type ExecBackend string

const (
	// BackendInMem is the classic emulation: the whole dataset is resident,
	// split into per-rank shards, and I/O is charged through the cost model
	// from the shards' modeled byte sizes.
	BackendInMem ExecBackend = "inmem"
	// BackendOOC is the out-of-core backend: each rank streams its own
	// partition files of a spill-to-disk store (Params.Store) one block at
	// a time, charging real on-disk bytes per block, and only candidate
	// counts cross the network — the paper's disk-resident CD as a
	// map/reduce over partition files.  Grid formulations (CD, IDD, HD)
	// only.
	BackendOOC ExecBackend = "ooc"
)

// ParseBackend converts a user-facing name into an ExecBackend.
func ParseBackend(s string) (ExecBackend, error) {
	switch ExecBackend(s) {
	case "":
		return BackendInMem, nil
	case BackendInMem, BackendOOC:
		return ExecBackend(s), nil
	}
	return "", fmt.Errorf("core: unknown backend %q (want inmem or ooc)", s)
}

// blockSource is one rank's stream of transaction blocks for one scan of
// the data it owns (run.owned) — the only way the SPMD bodies reach
// transactions, whichever backend holds them:
//
//   - resident shards yield their Dataset.Pages(PageBytes).  Opening the
//     source charges the shards' summed modeled bytes as one read — the
//     paper's T3E runs read "from the buffer instead of the actual disks"
//     and still charged the I/O — and the source reports zero ReadStats.
//   - store partitions yield their verified blocks.  Every block's real
//     on-disk size is charged as it is read, with read and decode spans,
//     and the work is tallied in the source's ReadStats.
//
// Either way the block count is known up front (page count or manifest),
// so ring peers agree on rounds without reading anything.  With reuse the
// partition readers recycle their buffers, so a block is only valid until
// the next call — callers that hand blocks to other ranks (the ring)
// disable it.
type blockSource struct {
	r      *run
	pages  [][]itemset.Transaction // resident: the owned shards' pages
	parts  []int                   // store: the owned partitions
	idx    int                     // next page, or next partition to open
	cur    *txstore.BlockReader
	reuse  bool
	blocks int // total blocks this source will yield
	stats  ReadStats
}

// openSource prepares the rank's block source for one scan.
func (r *run) openSource(p *cluster.Proc, reuse bool) *blockSource {
	s := &blockSource{r: r, reuse: reuse}
	if r.store == nil {
		var bytes int64
		for _, si := range r.owned[p.ID()] {
			sh := r.shards[si]
			s.pages = append(s.pages, sh.Pages(r.prm.PageBytes)...)
			bytes += int64(sh.Bytes())
		}
		s.blocks = len(s.pages)
		p.ReadIO(bytes, "io")
		return s
	}
	s.parts = r.owned[p.ID()]
	man := r.store.Manifest()
	for _, pi := range s.parts {
		s.blocks += man.Partitions[pi].Blocks
	}
	return s
}

// next returns the next block, or nil when the source is exhausted.  A
// partition block's read and decode costs land on p's clock before it is
// returned.
func (s *blockSource) next(p *cluster.Proc) ([]itemset.Transaction, error) {
	if s.r.store == nil {
		if s.idx >= len(s.pages) {
			return nil, nil
		}
		s.idx++
		return s.pages[s.idx-1], nil
	}
	for {
		if s.cur == nil {
			if s.idx >= len(s.parts) {
				return nil, nil
			}
			br, err := s.r.store.OpenPartition(s.parts[s.idx], s.reuse)
			if err != nil {
				return nil, err
			}
			s.cur = br
			s.idx++
		}
		blk, db, err := s.cur.Next()
		if err == io.EOF {
			if cerr := s.finishReader(); cerr != nil {
				return nil, cerr
			}
			continue
		}
		if err != nil {
			return nil, err
		}
		start := p.Clock()
		p.ReadIO(int64(db), "io")
		// Every read is synchronous — the rank's clock waits on the block
		// (no read-ahead; the ROADMAP double-buffering item would hide it).
		s.stats.Stalls++
		s.stats.Blocks++
		s.stats.Bytes += int64(db)
		s.r.sec(p, "read", start, obsv.Int("bytes", int64(db)))
		var items int64
		for _, t := range blk {
			items += int64(len(t.Items))
		}
		decStart := p.Clock()
		chargeScan(p, items, "decode")
		s.stats.DecodeSeconds += p.Clock() - decStart
		s.r.sec(p, "decode", decStart, obsv.Int("items", items))
		return blk, nil
	}
}

// finishReader folds the current partition reader's stats (the partition
// open and any survived checksum retries) into the source's and closes it.
func (s *blockSource) finishReader() error {
	if s.cur == nil {
		return nil
	}
	st := s.cur.Stats()
	s.stats.Partitions += st.Partitions
	s.stats.CRCRetries += st.CRCRetries
	err := s.cur.Close()
	s.cur = nil
	return err
}

// close releases the open partition reader, if any, and returns the
// source's read stats including it.
func (s *blockSource) close() ReadStats {
	_ = s.finishReader()
	return s.stats
}

// scanLocal feeds every block of the source to process in place — the
// counting loop of a rank that shares its data with nobody.
func scanLocal(p *cluster.Proc, src *blockSource, process func([]itemset.Transaction)) error {
	for {
		blk, err := src.next(p)
		if blk == nil || err != nil {
			return err
		}
		process(blk)
	}
}
