package memsys

import (
	"fmt"

	"mlcache/internal/cache"
)

// TLBConfig describes an optional translation lookaside buffer in front of
// the first-level caches. The TLB is itself a small cache — of page
// translations — and a miss costs a page-table walk: WalkLevels dependent
// loads of page-table entries that go through the memory hierarchy like
// any other data (page tables are cached), which is how real walks behave
// and why a warm L2 makes them cheap.
type TLBConfig struct {
	// Entries is the number of translations held; zero disables the TLB
	// (the paper's simulator works on post-translation traces).
	Entries int
	// PageBytes is the page size (default 4096).
	PageBytes int
	// Assoc is the TLB set size; 0 = fully associative (typical).
	Assoc int
	// WalkLevels is the page-table depth: loads per walk (default 2).
	WalkLevels int
	// WalkTableBase locates the page tables in the physical address
	// space; walks read from this region (default 1<<40).
	WalkTableBase uint64
}

func (t TLBConfig) pageBytes() int {
	if t.PageBytes == 0 {
		return 4096
	}
	return t.PageBytes
}

func (t TLBConfig) walkLevels() int {
	if t.WalkLevels == 0 {
		return 2
	}
	return t.WalkLevels
}

func (t TLBConfig) walkBase() uint64 {
	if t.WalkTableBase == 0 {
		return 1 << 40
	}
	return t.WalkTableBase
}

// Validate checks the configuration (only when enabled).
func (t TLBConfig) Validate() error {
	if t.Entries == 0 {
		return nil
	}
	if t.Entries < 0 {
		return fmt.Errorf("memsys: TLB entries %d must be non-negative", t.Entries)
	}
	if t.WalkLevels < 0 {
		return fmt.Errorf("memsys: TLB walk levels %d must be non-negative", t.WalkLevels)
	}
	return t.cacheConfig().Validate()
}

// cacheConfig maps the TLB onto the cache model: one "block" per page.
func (t TLBConfig) cacheConfig() cache.Config {
	return cache.Config{
		Name:       "TLB",
		SizeBytes:  int64(t.Entries) * int64(t.pageBytes()),
		BlockBytes: t.pageBytes(),
		Assoc:      t.Assoc,
		Repl:       cache.LRU,
		Write:      cache.WriteBack,
		Alloc:      cache.WriteAllocate,
	}
}

// TLBStats reports translation activity.
type TLBStats struct {
	Refs   int64
	Misses int64
	// WalkNS is the total time spent in page-table walks.
	WalkNS int64
}

// MissRatio returns misses over references.
func (s TLBStats) MissRatio() float64 {
	if s.Refs == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Refs)
}

type tlb struct {
	cfg       TLBConfig
	cache     *cache.Cache
	stats     TLBStats
	recording bool
}

// translate consults the TLB for the page of addr at time now, performing
// a page-table walk through the hierarchy on a miss, and returns the time
// the translation is available. Without a TLB it is an inlined no-op.
func (h *Hierarchy) translate(addr uint64, now int64) int64 {
	if h.tlb == nil {
		return now
	}
	return h.lookupTLB(addr, now)
}

func (h *Hierarchy) lookupTLB(addr uint64, now int64) int64 {
	t := h.tlb
	if t.recording {
		t.stats.Refs++
	}
	if t.cache.Access(addr, false).Hit {
		return now
	}
	if t.recording {
		t.stats.Misses++
	}
	// The walk: one dependent PTE load per level, each a quiet data read
	// through the normal hierarchy (page tables are cacheable).
	start := now
	page := addr / uint64(t.cfg.pageBytes())
	fl := h.l1 // walks use the data path
	if h.cfg.SplitL1 {
		fl = h.l1d
	}
	for lvl := 0; lvl < t.cfg.walkLevels(); lvl++ {
		pte := t.cfg.walkBase() + (page>>(uint(lvl)*9))*8
		res := fl.cache.AccessQuiet(pte, false)
		if res.Fill {
			// Walk fills are kept out of all demand statistics, like
			// prefetches.
			now = h.fetchBlock(0, pte, now, originPrefetch, fl.fetchRegion(res))
		}
		if res.Writeback {
			h.pushVictim(0, res.VictimAddr, now)
		}
		// Each PTE access costs at least a cycle even on a hit.
		now += h.cfg.CPUCycleNS
	}
	if t.recording {
		t.stats.WalkNS += now - start
	}
	return now
}
