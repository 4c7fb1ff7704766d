package serve

import (
	"container/list"
	"context"
	"fmt"
	"io"
	"os"
	"sync"

	"mlcache/internal/coord"
	"mlcache/internal/trace"
)

// refBytes is the in-memory footprint of one trace reference (the fixed
// artifact record size, which matches the Go layout of trace.Ref).
const refBytes = 16

// WorkloadKey returns the cache identity of a job's workload: everything
// that determines the materialized arena's contents. Content-addressed
// workloads are identified by their digest — the strongest key there is,
// and path-free, so the same artifact resolved to different local paths
// (or republished after a store move) still shares one arena. Synthetic
// workloads are identified by generator parameters; artifact files by
// path plus the header's CRC-32C of the record region, so a rewritten
// artifact at the same path is a different workload; other codecs fall
// back to path plus size and mtime (reading the whole file to hash it
// would cost as much as the decode the cache exists to avoid). The
// reference cap and lenient budget are part of the identity because both
// change the decoded arena.
func WorkloadKey(spec coord.JobSpec) (string, error) {
	if spec.ArtifactDigest != "" {
		return fmt.Sprintf("cas|%s|refs=%d|lenient=%d",
			spec.ArtifactDigest, spec.Refs, spec.Lenient), nil
	}
	if spec.TracePath == "" {
		return fmt.Sprintf("synth|seed=%d|refs=%d", spec.Seed, spec.Refs), nil
	}
	if trace.IsArtifactPath(spec.TracePath) {
		crc, err := trace.ArtifactChecksum(spec.TracePath)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("file|%s|crc=%08x|refs=%d|lenient=%d",
			spec.TracePath, crc, spec.Refs, spec.Lenient), nil
	}
	st, err := os.Stat(spec.TracePath)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("file|%s|size=%d|mtime=%d|refs=%d|lenient=%d",
		spec.TracePath, st.Size(), st.ModTime().UnixNano(), spec.Refs, spec.Lenient), nil
}

// Workload is one job's lease on a cached arena. The arena is shared with
// every other concurrent lease of the same workload; the holder must call
// Release exactly once when its last cursor is done.
type Workload struct {
	cache *ArenaCache
	entry *arenaEntry
	once  sync.Once
}

// Arena returns the shared, immutable trace.
func (w *Workload) Arena() *trace.Arena { return w.entry.arena }

// Key returns the workload's cache key.
func (w *Workload) Key() string { return w.entry.key }

// Skipped returns the lenient-decode skip count recorded when the
// workload was materialized.
func (w *Workload) Skipped() int64 { return w.entry.skipped }

// Release returns the lease. Safe to call more than once.
func (w *Workload) Release() {
	w.once.Do(func() { w.cache.release(w.entry) })
}

// arenaEntry is one cached workload. refs counts live leases; an entry is
// only evictable at refs == 0, so a streaming job can never lose its arena
// under it. ready is closed when the load completes (err set on failure);
// concurrent jobs for the same workload wait on it instead of decoding
// twice.
type arenaEntry struct {
	key      string
	arena    *trace.Arena
	closer   io.Closer
	artifact *trace.Artifact // non-nil when the closer is an mmap artifact
	bytes    int64
	skipped  int64
	refs     int
	ready    chan struct{}
	err      error
	elem     *list.Element // LRU position once loaded
}

// ArenaCacheStats is a snapshot of cache traffic and occupancy.
type ArenaCacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Bytes     int64
	Pinned    int64 // bytes held by entries with live leases
	Entries   int
}

// ArenaCache shares materialized workloads across jobs: one decode (or
// mmap) per distinct workload, refcounted leases while jobs stream, and
// LRU eviction of unleased entries once the byte budget is exceeded. All
// methods are safe for concurrent use; the trace load itself happens
// outside the lock, with duplicate loads for the same key coalesced.
type ArenaCache struct {
	mu        sync.Mutex
	budget    int64
	used      int64
	entries   map[string]*arenaEntry
	lru       *list.List // front = most recently used
	hits      int64
	misses    int64
	evictions int64
}

// NewArenaCache returns a cache bounded to budgetBytes of arena data
// (<= 0 means 1 GiB). Entries with live leases never count against
// evictability, so momentary overshoot is possible when every workload is
// in use; the budget is restored as leases release.
func NewArenaCache(budgetBytes int64) *ArenaCache {
	if budgetBytes <= 0 {
		budgetBytes = 1 << 30
	}
	return &ArenaCache{
		budget:  budgetBytes,
		entries: map[string]*arenaEntry{},
		lru:     list.New(),
	}
}

// Acquire leases the workload described by spec, materializing it on first
// use and sharing the cached arena afterwards. The second return reports
// whether the arena was already resident (a cache hit). The caller must
// Release the workload when done.
func (c *ArenaCache) Acquire(spec coord.JobSpec) (*Workload, bool, error) {
	key, err := WorkloadKey(spec)
	if err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		e.refs++
		c.hits++
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			c.mu.Lock()
			e.refs--
			c.mu.Unlock()
			return nil, false, e.err
		}
		if e.artifact != nil {
			// Belt and braces under the artifact's own reader refcount:
			// even a cache bug cannot unmap pages under this lease.
			if err := e.artifact.Pin(); err != nil {
				c.mu.Lock()
				e.refs--
				c.mu.Unlock()
				return nil, false, err
			}
		}
		c.mu.Lock()
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		return &Workload{cache: c, entry: e}, true, nil
	}

	e := &arenaEntry{key: key, refs: 1, ready: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	c.mu.Unlock()

	// Coalesced acquirers share this load, so no one job's context may
	// cancel it.
	arena, closer, skipped, err := spec.MaterializeArena(context.Background())
	if err != nil {
		e.err = err
		close(e.ready)
		c.mu.Lock()
		delete(c.entries, key)
		c.mu.Unlock()
		return nil, false, err
	}
	e.arena = arena
	e.closer = closer
	e.skipped = skipped
	e.bytes = int64(arena.Len()) * refBytes
	if a, ok := closer.(*trace.Artifact); ok {
		e.artifact = a
		if err := a.Pin(); err != nil {
			// Freshly opened; cannot actually be closed.
			e.err = err
			close(e.ready)
			c.mu.Lock()
			delete(c.entries, key)
			c.mu.Unlock()
			return nil, false, err
		}
	}
	c.mu.Lock()
	c.used += e.bytes
	e.elem = c.lru.PushFront(e)
	c.evictLocked()
	c.mu.Unlock()
	close(e.ready)
	return &Workload{cache: c, entry: e}, false, nil
}

// release drops one lease and evicts if the budget is exceeded.
func (c *ArenaCache) release(e *arenaEntry) {
	if e.artifact != nil {
		e.artifact.Unpin()
	}
	c.mu.Lock()
	e.refs--
	c.evictLocked()
	c.mu.Unlock()
}

// evictLocked discards least-recently-used unleased entries until the
// budget is met. Called with c.mu held.
func (c *ArenaCache) evictLocked() {
	for c.used > c.budget {
		var victim *arenaEntry
		for el := c.lru.Back(); el != nil; el = el.Prev() {
			if e := el.Value.(*arenaEntry); e.refs == 0 {
				victim = e
				break
			}
		}
		if victim == nil {
			return // everything live; budget restored as leases release
		}
		c.lru.Remove(victim.elem)
		victim.elem = nil
		delete(c.entries, victim.key)
		c.used -= victim.bytes
		c.evictions++
		// No leases -> no artifact pins besides the readers this cache
		// vouches for, so Close cannot return ErrArtifactBusy here.
		_ = victim.closer.Close()
	}
}

// Stats returns a snapshot of the cache counters.
func (c *ArenaCache) Stats() ArenaCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := ArenaCacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Bytes:     c.used,
		Entries:   len(c.entries),
	}
	for _, e := range c.entries {
		if e.refs > 0 {
			s.Pinned += e.bytes
		}
	}
	return s
}
