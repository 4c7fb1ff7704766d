package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"mlcache/internal/coord"
	"mlcache/internal/cpu"
	"mlcache/internal/sweep"
)

// resultKeyBase hashes everything outside the grid that determines a
// point's result: the workload identity (which already covers trace
// content, reference cap, lenient budget, and synthetic seed) and the
// fixed machine parameters. Two grids that differ only in which points
// they enumerate share a base, so a later job reuses any overlapping
// points, not just exact grid repeats.
func resultKeyBase(workloadKey string, spec coord.JobSpec) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s|l1=%d|slow=%t|check=%t",
		workloadKey, spec.L1KB, spec.SlowMem, spec.CheckInvariants)))
	return hex.EncodeToString(h[:8])
}

type resultEntry struct {
	key string
	run cpu.Result
}

// resultCache memoizes per-point simulation outcomes across jobs, keyed
// by (result base, point). The engine is bit-deterministic, so a cached
// result is exactly what a re-simulation would produce; repeated grids
// are served from memory without touching a hierarchy. Bounded by entry
// count with LRU eviction.
type resultCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element
	lru     *list.List
}

func newResultCache(maxPoints int) *resultCache {
	if maxPoints <= 0 {
		maxPoints = 65536
	}
	return &resultCache{max: maxPoints, entries: map[string]*list.Element{}, lru: list.New()}
}

func pointKey(base string, pt sweep.Point) string { return base + "|" + pt.String() }

func (rc *resultCache) get(base string, pt sweep.Point) (cpu.Result, bool) {
	return rc.getKey(pointKey(base, pt))
}

func (rc *resultCache) getKey(key string) (cpu.Result, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	el, ok := rc.entries[key]
	if !ok {
		return cpu.Result{}, false
	}
	rc.lru.MoveToFront(el)
	return el.Value.(*resultEntry).run, true
}

// has reports residency without touching LRU order — the durable layer's
// compaction probe must not distort recency.
func (rc *resultCache) has(key string) bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	_, ok := rc.entries[key]
	return ok
}

func (rc *resultCache) putKey(key string, run cpu.Result) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if el, ok := rc.entries[key]; ok {
		rc.lru.MoveToFront(el)
		el.Value.(*resultEntry).run = run
		return
	}
	rc.entries[key] = rc.lru.PushFront(&resultEntry{key: key, run: run})
	for len(rc.entries) > rc.max {
		back := rc.lru.Back()
		rc.lru.Remove(back)
		delete(rc.entries, back.Value.(*resultEntry).key)
	}
}

func (rc *resultCache) len() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return len(rc.entries)
}
