package memsys

import (
	"mlcache/internal/cache"
	"mlcache/internal/wbuf"
)

// LevelStats reports everything observed at one cache level.
type LevelStats struct {
	Name  string
	Cache cache.Stats
	// StoreFills counts block fetches arriving at this level on behalf of
	// upstream store misses (write-allocate traffic); they are excluded
	// from Cache's read statistics.
	StoreFills      int64
	StoreFillMisses int64
	// Prefetches counts next-block prefetches issued by this level.
	Prefetches int64
	// InBuf reports the write buffer draining into this level, when one
	// exists (all levels except the first).
	InBuf wbuf.Stats
}

// LocalReadMissRatio is the paper's local miss ratio: misses over the read
// requests reaching this cache.
func (ls LevelStats) LocalReadMissRatio() float64 { return ls.Cache.LocalReadMissRatio() }

// GlobalReadMissRatio is the paper's global miss ratio: this level's read
// misses over the reads issued by the CPU.
func (ls LevelStats) GlobalReadMissRatio(cpuReads int64) float64 {
	if cpuReads == 0 {
		return 0
	}
	return float64(ls.Cache.ReadMisses) / float64(cpuReads)
}

// Stats is a snapshot of the whole hierarchy's counters.
type Stats struct {
	// L1I and L1D are set for a split first level; L1 otherwise.
	L1I *LevelStats
	L1D *LevelStats
	L1  *LevelStats
	// Down lists the downstream levels, nearest the CPU first.
	Down []LevelStats

	MemReads   int64
	MemWrites  int64
	MemStallNS int64
	MemBuf     wbuf.Stats
	// MemBusBusyCycles counts backplane bus cycles consumed by fetches
	// and writebacks, for utilization accounting.
	MemBusBusyCycles int64
	// TLB is set when the hierarchy models address translation.
	TLB *TLBStats
}

// FirstLevelReads returns the reads presented to the first level: the CPU
// read reference count.
func (s Stats) FirstLevelReads() int64 {
	if s.L1 != nil {
		return s.L1.Cache.ReadRefs
	}
	var n int64
	if s.L1I != nil {
		n += s.L1I.Cache.ReadRefs
	}
	if s.L1D != nil {
		n += s.L1D.Cache.ReadRefs
	}
	return n
}

// FirstLevelReadMisses returns the combined first-level read misses.
func (s Stats) FirstLevelReadMisses() int64 {
	if s.L1 != nil {
		return s.L1.Cache.ReadMisses
	}
	var n int64
	if s.L1I != nil {
		n += s.L1I.Cache.ReadMisses
	}
	if s.L1D != nil {
		n += s.L1D.Cache.ReadMisses
	}
	return n
}

// L1GlobalReadMissRatio returns the first level's (combined) global read
// miss ratio, the M_L1 of the paper's equations.
func (s Stats) L1GlobalReadMissRatio() float64 {
	reads := s.FirstLevelReads()
	if reads == 0 {
		return 0
	}
	return float64(s.FirstLevelReadMisses()) / float64(reads)
}

// Stats captures a snapshot of all counters.
func (h *Hierarchy) Stats() Stats {
	var s Stats
	snap := func(fl *firstLevel) *LevelStats {
		if fl == nil {
			return nil
		}
		return &LevelStats{
			Name:       fl.cfg.Cache.Name,
			Cache:      fl.cache.Stats(),
			Prefetches: fl.prefetches,
		}
	}
	s.L1I, s.L1D, s.L1 = snap(h.l1i), snap(h.l1d), snap(h.l1)
	for _, lvl := range h.down {
		cs := lvl.cache.Stats()
		if lvl.played {
			cs = lvl.playedStats
		}
		s.Down = append(s.Down, LevelStats{
			Name:            lvl.cfg.Cache.Name,
			Cache:           cs,
			StoreFills:      lvl.storeFills,
			StoreFillMisses: lvl.storeFillMisses,
			Prefetches:      lvl.prefetches,
			InBuf:           lvl.inBuf.Stats(),
		})
	}
	s.MemReads, s.MemWrites, s.MemStallNS = h.mem.Stats()
	s.MemBuf = h.memBuf.Stats()
	s.MemBusBusyCycles = h.memBus.BusyCycles()
	if h.tlb != nil {
		st := h.tlb.stats
		s.TLB = &st
	}
	return s
}
