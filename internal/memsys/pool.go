package memsys

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"mlcache/internal/cache"
)

// Pool is a geometry-keyed free list of hierarchies — the sharing layer
// above the per-worker ResetFor reuse inside one sweep. A sweep worker
// reuses its own hierarchy only while consecutive points share cache
// geometry; a Pool lets heterogeneous grids, consecutive jobs in a
// long-running service, and the optimal-search driver hand finished
// hierarchies back for any later simulation of the same geometry, skipping
// the construction of its caches, directories and first-level arrays.
//
// A hierarchy taken from the pool is indistinguishable from a freshly
// constructed one: Get re-purposes it with ResetFor, whose contract is
// bit-identical simulation results. A Pool is safe for concurrent use.
//
// Idle hierarchies are bounded twice: at most perKey per geometry, and,
// when the pool has a byte bound, at most that many bytes of tag arrays
// in all (Config.TagBytes, every set counted as filled, so an upper bound
// on what they hold), so that a stream of simulations with distinct large
// caches does not keep every one of them.
type Pool struct {
	mu           sync.Mutex
	perKey       int
	maxIdleBytes int64
	free         map[string][]idle // per geometry, least recently returned first
	returns      uint64
	idleBytes    int64
	stats        PoolStats
}

// idle is one pooled hierarchy: its tag-array bytes and the count of
// returns to the pool when it came back, which orders the drops.
type idle struct {
	h     *Hierarchy
	bytes int64
	seq   uint64
}

// PoolStats counts pool traffic. Hits/Gets is the reuse rate a service
// exports; Drops counts hierarchies discarded because their geometry's
// free list was full or because they would not fit the byte bound.
type PoolStats struct {
	Gets  int64
	Hits  int64
	Puts  int64
	Drops int64
	// Size is the number of hierarchies currently pooled, across all
	// geometries, and IdleBytes the bytes of their tag arrays.
	Size      int
	IdleBytes int64
}

// NewPool returns a pool that keeps at most perKey idle hierarchies per
// geometry (<= 0 means 4, enough for a small worker pool cycling through
// one grid's geometries without unbounded retention) and at most
// maxIdleBytes bytes of idle tag arrays in all (<= 0 means no such bound).
func NewPool(perKey int, maxIdleBytes int64) *Pool {
	if perKey <= 0 {
		perKey = 4
	}
	return &Pool{perKey: perKey, maxIdleBytes: maxIdleBytes, free: map[string][]idle{}}
}

// Get returns a hierarchy configured for cfg, reusing a pooled one of the
// same geometry when available and constructing a new one otherwise.
func (p *Pool) Get(cfg Config) (*Hierarchy, error) {
	key := geometryKey(cfg)
	p.mu.Lock()
	p.stats.Gets++
	var h *Hierarchy
	if list := p.free[key]; len(list) > 0 {
		h = p.take(key, len(list)-1)
	}
	p.mu.Unlock()
	if h != nil && h.ResetFor(cfg) {
		p.mu.Lock()
		p.stats.Hits++
		p.mu.Unlock()
		return h, nil
	}
	// Either nothing was pooled or cfg failed validation inside ResetFor;
	// construct from scratch so the caller sees the real error.
	return New(cfg)
}

// Put returns a hierarchy to the pool for later reuse. The caller must not
// use h afterwards. A hierarchy is dropped if its geometry's free list is
// full or its tag arrays alone exceed the byte bound; past the bound, the
// least recently returned idle hierarchies are dropped until the pool
// fits.
func (p *Pool) Put(h *Hierarchy) {
	if h == nil {
		return
	}
	key, size := geometryKey(h.cfg), h.cfg.TagBytes()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Puts++
	if len(p.free[key]) >= p.perKey || p.maxIdleBytes > 0 && size > p.maxIdleBytes {
		p.stats.Drops++
		return
	}
	p.returns++
	p.free[key] = append(p.free[key], idle{h, size, p.returns})
	p.idleBytes += size
	for p.maxIdleBytes > 0 && p.idleBytes > p.maxIdleBytes {
		p.dropOldest()
	}
}

// dropOldest drops the least recently returned idle hierarchy, the first
// of some geometry's free list.
func (p *Pool) dropOldest() {
	oldest := ""
	for key, list := range p.free {
		if oldest == "" || list[0].seq < p.free[oldest][0].seq {
			oldest = key
		}
	}
	p.take(oldest, 0)
	p.stats.Drops++
}

// take removes the i-th hierarchy from key's free list and returns it,
// keeping only non-empty lists, no reference to it and idleBytes in step.
func (p *Pool) take(key string, i int) *Hierarchy {
	list := p.free[key]
	h := list[i].h
	p.idleBytes -= list[i].bytes
	if list = slices.Delete(list, i, i+1); len(list) > 0 {
		p.free[key] = list
	} else {
		delete(p.free, key)
	}
	return h
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	for _, list := range p.free {
		s.Size += len(list)
	}
	s.IdleBytes = p.idleBytes
	return s
}

// geometryKey renders the allocation shape ResetFor requires to match:
// the hierarchy structure (split L1, level count, TLB presence) and each
// cache's tag-array geometry (the same fields cache.Compatible compares).
// Timing, policies, and seeds are deliberately absent — they are free to
// differ across a reuse.
func geometryKey(cfg Config) string {
	var b strings.Builder
	if cfg.SplitL1 {
		b.WriteString("split")
	} else {
		b.WriteString("unified")
	}
	for _, lc := range cfg.firstLevels() {
		writeCacheGeometry(&b, lc.Cache)
	}
	for _, lc := range cfg.Down {
		writeCacheGeometry(&b, lc.Cache)
	}
	if cfg.TLB.Entries > 0 {
		b.WriteString("|tlb")
		writeCacheGeometry(&b, cfg.TLB.cacheConfig())
	}
	return b.String()
}

func writeCacheGeometry(b *strings.Builder, c cache.Config) {
	fmt.Fprintf(b, "|%d:%d:%d:%d:%d", c.NumSets(), c.Ways(), c.BlockBytes, c.SubBlocks(), c.EffectiveFetchBytes())
}
