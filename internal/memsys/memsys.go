// Package memsys composes caches, buses, write buffers, and main memory
// into a time-accurate multi-level memory hierarchy, the simulation core of
// the paper. The hierarchy supports a split (I + D) or unified first level,
// any number of unified downstream levels, write buffers between adjacent
// levels, and the paper's main-memory timing model.
//
// Timing conventions (see DESIGN.md §5):
//
//   - Time is int64 nanoseconds. The CPU model charges one base CPU cycle
//     per executed cycle; Hierarchy.Access is called with `now` equal to
//     the end of that cycle and returns the time the CPU may continue.
//   - A read that hits in a first-level cache cycling at the CPU rate
//     returns `now` unchanged: hits are covered by the base cycle.
//   - A first-level read miss that hits at level i stalls the CPU for one
//     level-i cycle per level traversed (tag check + critical transfer
//     overlap), the paper's nominal 3-CPU-cycle L1 miss penalty.
//   - A miss at the deepest cache stalls until the entire block arrives
//     from main memory: one backplane address cycle, the memory read, and
//     the data transfer beats — 270 ns nominal for the base machine.
//   - Dirty victims enter the write buffer toward the next level and drain
//     whenever that level is idle.
package memsys

import (
	"fmt"

	"mlcache/internal/bus"
	"mlcache/internal/cache"
	"mlcache/internal/mainmem"
	"mlcache/internal/trace"
	"mlcache/internal/wbuf"
)

// LevelConfig describes one cache level plus its timing.
type LevelConfig struct {
	Cache cache.Config
	// CycleNS is the basic cache cycle time: reads that tag-hit complete
	// in this time.
	CycleNS int64
	// WriteCycles is the cost of a write hit in level cycles. The paper's
	// caches take 2 cycles per write hit; zero means 2.
	WriteCycles int
	// Prefetch enables fetch-on-miss next-block prefetching at this
	// level: every demand miss also fetches the sequentially next block
	// in the background. The prefetch occupies this level and the levels
	// below after the demand fill completes, so it can delay later
	// demand requests — the contention the paper's simulator models.
	Prefetch bool
}

func (lc LevelConfig) writeCycles() int {
	if lc.WriteCycles == 0 {
		return 2
	}
	return lc.WriteCycles
}

// WriteNS returns the service time of a write hit.
func (lc LevelConfig) WriteNS() int64 { return int64(lc.writeCycles()) * lc.CycleNS }

// Validate checks the level configuration.
func (lc LevelConfig) Validate() error {
	if err := lc.Cache.Validate(); err != nil {
		return err
	}
	if lc.CycleNS <= 0 {
		return fmt.Errorf("memsys: level %s cycle time %d must be positive", lc.Cache.Name, lc.CycleNS)
	}
	if lc.WriteCycles < 0 {
		return fmt.Errorf("memsys: level %s write cycles %d must be non-negative", lc.Cache.Name, lc.WriteCycles)
	}
	return nil
}

// Config describes a complete hierarchy.
type Config struct {
	CPUCycleNS int64

	// SplitL1 selects a split first level (L1I + L1D); otherwise L1 is
	// used as a unified first level.
	SplitL1 bool
	L1I     LevelConfig
	L1D     LevelConfig
	L1      LevelConfig

	// Down lists the unified downstream levels (L2, L3, ...), nearest
	// first. It may be empty for a single-level system.
	Down []LevelConfig

	// WBDepth is the depth of the write buffer between adjacent levels;
	// the paper's base machine uses 4. Negative disables buffering
	// (writes stall); zero means the default of 4.
	WBDepth int
	// WBCoalesce lets the write buffers merge writes to a block already
	// buffered (hardware write-merging).
	WBCoalesce bool

	// MemBusWidthBytes and MemBusCycleNS describe the backplane bus to
	// main memory. Zero values default to 16 bytes (4 words) and the
	// deepest cache's cycle time, per the paper.
	MemBusWidthBytes int
	MemBusCycleNS    int64

	// TLB optionally models address translation in front of the first
	// level; TLB.Entries == 0 (the default, and the paper's model)
	// disables it.
	TLB TLBConfig

	Memory mainmem.Config

	// CheckInvariants enables the runtime invariant checker: after every
	// access the hierarchy validates cache-state invariants (no duplicate
	// tags, LRU well-formedness, dirty-block accounting, write-buffer
	// occupancy, monotone time) and latches the first violation as an
	// *InvariantError, surfaced through Hierarchy.InvariantErr and the CPU
	// loop. The sweep is O(total cache size) per access — a debugging and
	// validation mode, off by default.
	CheckInvariants bool
}

func (c Config) wbDepth() int {
	switch {
	case c.WBDepth < 0:
		return 0
	case c.WBDepth == 0:
		return 4
	default:
		return c.WBDepth
	}
}

func (c Config) firstLevels() []LevelConfig {
	if c.SplitL1 {
		return []LevelConfig{c.L1I, c.L1D}
	}
	return []LevelConfig{c.L1}
}

// TagBytes is what the tag arrays of a valid c hold once every set has
// been filled: the cache.Config.AllocBytes of every cache, the TLB's
// included. New allocates less: a large cache's pages come with fills.
func (c Config) TagBytes() int64 {
	var n int64
	for _, lc := range c.firstLevels() {
		n += lc.Cache.AllocBytes()
	}
	for _, lc := range c.Down {
		n += lc.Cache.AllocBytes()
	}
	if c.TLB.Entries > 0 {
		n += c.TLB.cacheConfig().AllocBytes()
	}
	return n
}

// DeepestLevel returns the configuration of the cache closest to memory.
func (c Config) DeepestLevel() LevelConfig {
	if len(c.Down) > 0 {
		return c.Down[len(c.Down)-1]
	}
	if c.SplitL1 {
		return c.L1D
	}
	return c.L1
}

// Validate checks the whole configuration.
func (c Config) Validate() error {
	if c.CPUCycleNS <= 0 {
		return fmt.Errorf("memsys: CPU cycle time %d must be positive", c.CPUCycleNS)
	}
	for _, lc := range c.firstLevels() {
		if err := lc.Validate(); err != nil {
			return err
		}
	}
	prevBlock := 0
	for _, lc := range c.firstLevels() {
		if lc.Cache.BlockBytes > prevBlock {
			prevBlock = lc.Cache.BlockBytes
		}
	}
	for _, lc := range c.Down {
		if err := lc.Validate(); err != nil {
			return err
		}
		if lc.Cache.BlockBytes < prevBlock {
			return fmt.Errorf("memsys: level %s block size %d smaller than upstream block %d",
				lc.Cache.Name, lc.Cache.BlockBytes, prevBlock)
		}
		prevBlock = lc.Cache.BlockBytes
	}
	if c.MemBusWidthBytes < 0 {
		return fmt.Errorf("memsys: memory bus width %d must be non-negative", c.MemBusWidthBytes)
	}
	if c.MemBusCycleNS < 0 {
		return fmt.Errorf("memsys: memory bus cycle %d must be non-negative", c.MemBusCycleNS)
	}
	if err := c.TLB.Validate(); err != nil {
		return err
	}
	return c.Memory.Validate()
}

// resource tracks the availability of a sequential hardware unit.
type resource struct{ freeAt int64 }

func (r *resource) claim(earliest, dur int64) (start, done int64) {
	start = earliest
	if r.freeAt > start {
		start = r.freeAt
	}
	done = start + dur
	r.freeAt = done
	return start, done
}

// origin classifies who initiated a block fetch, for statistics purposes:
// only read-originated fetches enter read miss ratios.
type origin uint8

const (
	originRead origin = iota
	originStore
	originPrefetch
)

// level is one downstream cache level at run time.
type level struct {
	cfg LevelConfig
	// writeNS is cfg.WriteNS(), kept so a buffered write does not copy cfg.
	writeNS int64
	cache   *cache.Cache
	res     resource
	// inBuf drains victims from the upstream level into this one.
	inBuf *wbuf.Buffer
	// storeFills counts block fetches triggered by store misses upstream;
	// they are kept out of the cache's read statistics.
	storeFills      int64
	storeFillMisses int64
	// prefetches counts next-block prefetches issued by this level.
	prefetches int64
	recording  bool
	// tags, set only on the first downstream level while a run records or
	// plays a TagScript, routes its tag-array operations through the
	// script. played marks a finished played replay, whose tag-array
	// statistics are playedStats (copied from the script).
	tags        *tagTape
	played      bool
	playedStats cache.Stats
}

// firstLevel is a CPU-speed first-level cache at run time.
type firstLevel struct {
	cfg        LevelConfig
	cache      *cache.Cache
	prefetches int64
	recording  bool
	// readExtra and writeExtra are the CPU stall of a read hit and of a
	// write hit beyond the one base cycle the caller charges: nonzero only
	// when the level cycles slower than the CPU, or for the extra write
	// cycles.
	readExtra  int64
	writeExtra int64
}

// newFirstLevel builds the first level of lc for a CPU cycling every
// cpuCycleNS, on old's cache reset for lc.Cache (a new cache when old is
// nil).
func newFirstLevel(old *firstLevel, lc LevelConfig, cpuCycleNS int64) *firstLevel {
	var c *cache.Cache
	if old != nil {
		c = old.cache
	}
	return &firstLevel{
		cfg:        lc,
		cache:      resetCache(c, lc.Cache),
		readExtra:  max(lc.CycleNS-cpuCycleNS, 0),
		writeExtra: max(lc.WriteNS()-cpuCycleNS, 0),
	}
}

// resetCache returns c, or a new cache when c is nil, reset for cfg by
// cache.ResetFor. Config.Validate checks every cache's configuration, so
// a refusal here is a bug.
func resetCache(c *cache.Cache, cfg cache.Config) *cache.Cache {
	if c == nil {
		c = &cache.Cache{}
	}
	if err := c.ResetFor(cfg); err != nil {
		panic(err)
	}
	return c
}

// Hierarchy is a runnable memory hierarchy. It is not safe for concurrent
// use; run one Hierarchy per goroutine.
type Hierarchy struct {
	cfg Config

	l1i *firstLevel // nil unless split
	l1d *firstLevel // nil unless split
	l1  *firstLevel // nil if split

	down   []*level
	tlb    *tlb
	memBus *bus.Bus
	mem    *mainmem.Memory
	memBuf *wbuf.Buffer

	// deepBlockBytes is the block size of the deepest cache (writebacks
	// to memory move blocks of this size); deepFetchBytes is its fetch
	// unit (demand fetches from memory move regions of this size).
	deepBlockBytes int
	deepFetchBytes int

	// checks mirrors cfg.CheckInvariants; invErr latches the first
	// violation; lastNow tracks access-time monotonicity.
	checks  bool
	invErr  error
	lastNow int64

	// tap, when non-nil, records the first-level boundary stream for
	// one-pass grid evaluation (see onepass.go).
	tap *DownRecorder
}

// New constructs a hierarchy from a validated configuration: ResetFor on
// an empty hierarchy.
func New(cfg Config) (*Hierarchy, error) {
	h := &Hierarchy{}
	if err := h.ResetFor(cfg); err != nil {
		return nil, err
	}
	return h, nil
}

// Reset returns the hierarchy to its just-constructed state — every cache
// line invalid, all counters zeroed, all resource schedules idle, recording
// on — clearing one-page tag arrays in place and dropping a paged cache's
// pages (see cache.ResetFor). A reset hierarchy produces bit-identical
// simulation results to a freshly constructed one.
func (h *Hierarchy) Reset() {
	_ = h.ResetFor(h.cfg) // h.cfg passed Validate when the hierarchy adopted it
}

// ResetFor leaves the hierarchy exactly as New(cfg) would build it, for
// any valid cfg: it builds every level, the TLB, the bus, main memory and
// the write buffers afresh, and hands each old cache to cache.ResetFor
// for the cache in the same position (L1I, L1D or L1; Down[i]; the TLB),
// which keeps its tag array when the set count and ways still fit. A
// sweep worker runs all its points on one hierarchy this way. An invalid
// cfg is refused before anything changes.
func (h *Hierarchy) ResetFor(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	old := *h
	deepest := cfg.DeepestLevel()
	*h = Hierarchy{
		cfg:            cfg,
		deepBlockBytes: deepest.Cache.BlockBytes,
		deepFetchBytes: deepest.Cache.EffectiveFetchBytes(),
		checks:         cfg.CheckInvariants,
	}
	if cfg.SplitL1 {
		h.l1i = newFirstLevel(old.l1i, cfg.L1I, cfg.CPUCycleNS)
		h.l1d = newFirstLevel(old.l1d, cfg.L1D, cfg.CPUCycleNS)
	} else {
		h.l1 = newFirstLevel(old.l1, cfg.L1, cfg.CPUCycleNS)
	}

	// Write buffers: one in front of each downstream level, one in front
	// of memory.
	depth := cfg.wbDepth()
	for i, lc := range cfg.Down {
		var c *cache.Cache
		if i < len(old.down) {
			c = old.down[i].cache
		}
		lvl := &level{cfg: lc, writeNS: lc.WriteNS(), cache: resetCache(c, lc.Cache)}
		lvl.inBuf = wbuf.MustNew(depth, &levelSink{h: h, idx: i})
		lvl.inBuf.SetCoalescing(cfg.WBCoalesce)
		h.down = append(h.down, lvl)
	}
	h.memBuf = wbuf.MustNew(depth, &memSink{h: h})
	h.memBuf.SetCoalescing(cfg.WBCoalesce)

	if cfg.TLB.Entries > 0 {
		var c *cache.Cache
		if old.tlb != nil {
			c = old.tlb.cache
		}
		h.tlb = &tlb{cfg: cfg.TLB, cache: resetCache(c, cfg.TLB.cacheConfig())}
	}

	busCycle := cfg.MemBusCycleNS
	if busCycle == 0 {
		busCycle = deepest.CycleNS
	}
	busWidth := cfg.MemBusWidthBytes
	if busWidth == 0 {
		busWidth = 4 * bus.WordBytes
	}
	h.memBus = bus.MustNew(bus.Config{Name: "membus", WidthBytes: busWidth, CycleNS: busCycle})
	h.mem = mainmem.MustNew(cfg.Memory)
	h.SetRecording(true)
	return nil
}

// MustNew is New that panics on configuration errors.
func MustNew(cfg Config) *Hierarchy {
	h, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// SetRecording toggles statistics gathering on every cache in the
// hierarchy, implementing cold-start (warm-up) handling.
func (h *Hierarchy) SetRecording(on bool) {
	for _, fl := range []*firstLevel{h.l1i, h.l1d, h.l1} {
		if fl != nil {
			fl.cache.SetRecording(on)
			fl.recording = on
		}
	}
	for _, lvl := range h.down {
		lvl.cache.SetRecording(on)
		lvl.recording = on
		if lvl.tags != nil {
			lvl.tags.flip(on)
		}
	}
	if h.tlb != nil {
		h.tlb.recording = on
	}
}

// route picks the first-level cache serving a reference.
func (h *Hierarchy) route(k trace.Kind) *firstLevel {
	if !h.cfg.SplitL1 {
		return h.l1
	}
	if k == trace.IFetch {
		return h.l1i
	}
	return h.l1d
}

// Access presents one reference to the hierarchy at time `now` (the end of
// the CPU cycle issuing it) and returns the time at which the CPU may
// proceed. The base CPU cycle is charged by the caller.
func (h *Hierarchy) Access(r trace.Ref, now int64) int64 {
	if !h.checks {
		return h.access(r, now)
	}
	done := h.access(r, now)
	h.verifyAccess(now, done)
	return done
}

func (h *Hierarchy) access(r trace.Ref, now int64) int64 {
	now = h.translate(r.Addr, now)
	fl := h.route(r.Kind)
	isStore := r.Kind == trace.Store
	// Fast path: a first-level hit that sends nothing downstream costs
	// only its precomputed extra and never pends a tap event.
	if fl.cache.TryHit(r.Addr, isStore) {
		if isStore {
			return now + fl.writeExtra
		}
		return now + fl.readExtra
	}
	var done int64
	if isStore {
		done = h.accessStore(fl, r.Addr, now)
	} else {
		done = h.accessRead(fl, r.Addr, now)
	}
	if h.tap != nil {
		h.tap.commit(now, done)
	}
	return done
}

// accessRead completes a first-level read that TryHit declined: a miss or
// a sub-block miss.
func (h *Hierarchy) accessRead(fl *firstLevel, addr uint64, now int64) int64 {
	res := fl.cache.Access(addr, false)
	region := fl.fetchRegion(res)
	if h.tap != nil {
		h.tap.pend(evFetch, addr, res.VictimAddr, res.Writeback, region)
	}
	// A first level slower than the CPU spends its extra cycles before the
	// fetch goes down.
	done := h.fetchBlock(0, addr, now+fl.readExtra, originRead, region)
	if res.Writeback {
		done = maxI64(done, h.pushVictim(0, res.VictimAddr, now))
	}
	h.maybePrefetchFirst(fl, addr, done)
	return done
}

// fetchRegion returns the number of bytes a fill must bring in: the fetch
// unit for partial (sub-block) fills, the whole block otherwise.
func (fl *firstLevel) fetchRegion(res cache.Result) int {
	if res.Partial {
		return fl.cfg.Cache.EffectiveFetchBytes()
	}
	return fl.cfg.Cache.BlockBytes
}

func (lvl *level) fetchRegion(res cache.Result) int {
	if res.Partial {
		return lvl.cfg.Cache.EffectiveFetchBytes()
	}
	return lvl.cfg.Cache.BlockBytes
}

// maybePrefetchFirst issues a next-block prefetch into a first-level cache
// after a demand miss. The prefetch does not stall the CPU; it occupies
// the downstream levels starting at the demand completion time.
func (h *Hierarchy) maybePrefetchFirst(fl *firstLevel, addr uint64, done int64) {
	if !fl.cfg.Prefetch {
		return
	}
	next := fl.cache.BlockAddr(addr) + uint64(fl.cfg.Cache.BlockBytes)
	if fl.cache.Probe(next) {
		return
	}
	if fl.recording {
		fl.prefetches++
	}
	res := fl.cache.AccessQuiet(next, false)
	if res.Fill {
		h.fetchBlock(0, next, done, originPrefetch, fl.cfg.Cache.BlockBytes)
	}
	if res.Writeback {
		h.pushVictim(0, res.VictimAddr, done)
	}
}

func (h *Hierarchy) accessStore(fl *firstLevel, addr uint64, now int64) int64 {
	res := fl.cache.Access(addr, true)
	if h.tap != nil && (res.Fill || res.WriteDown || res.Writeback) {
		flags := evStoreAcc
		if res.Fill {
			flags |= evFetch
		}
		if res.WriteDown {
			flags |= evWriteDown
		}
		h.tap.pend(flags, addr, res.VictimAddr, res.Writeback, fl.fetchRegion(res))
	}
	done := now
	if res.Fill {
		// Write-allocate: fetch the block, then complete the write.
		done = h.fetchBlock(0, addr, now, originStore, fl.fetchRegion(res))
	}
	if res.WriteDown {
		// Write-through (hit or miss) or no-write-allocate: the store
		// itself goes down, via the write buffer.
		done = maxI64(done, h.pushVictim(0, fl.cache.BlockAddr(addr), now))
	}
	if res.Writeback {
		done = maxI64(done, h.pushVictim(0, res.VictimAddr, now))
	}
	// Write hits take WriteCycles level cycles in total; one CPU cycle is
	// already charged by the caller.
	return done + fl.writeExtra
}

// fetchBlock obtains the region of reqBytes containing addr from
// downstream level idx (len(down) means main memory), beginning at time
// now, and returns the time the region has fully arrived. The origin
// selects how the access enters statistics: only read-originated fetches
// count toward read miss ratios.
func (h *Hierarchy) fetchBlock(idx int, addr uint64, now int64, org origin, reqBytes int) int64 {
	if idx >= len(h.down) {
		return h.memRead(addr, now)
	}
	lvl := h.down[idx]

	// Background drains that happened before the request arrives, then a
	// priority flush if the requested block is sitting in the buffer.
	lvl.inBuf.CatchUp(now)
	reqBlock := addr &^ (uint64(reqBytes) - 1)
	now = lvl.inBuf.FlushMatch(reqBlock, now)

	var res cache.Result
	switch {
	case lvl.tags != nil: // recording or playing a tag script
		outcome, victim := lvl.tags.access(lvl.cache, addr, tagKind(org))
		res = tagResults[outcome]
		res.VictimAddr = victim
	case org == originRead:
		res = lvl.cache.Access(addr, false)
	default: // originStore, originPrefetch
		res = lvl.cache.AccessQuiet(addr, false)
	}
	if org == originStore && lvl.recording {
		lvl.storeFills++
		if !res.Hit {
			lvl.storeFillMisses++
		}
	}

	// The tag check (and, on a hit, the critical transfer) takes one level
	// cycle on the level's port.
	start, tagDone := lvl.res.claim(now, lvl.cfg.CycleNS)
	if res.Hit {
		return tagDone
	}

	done := h.fetchBlock(idx+1, addr, tagDone, org, lvl.fetchRegion(res))
	if res.Writeback {
		done = maxI64(done, h.pushVictim(idx+1, res.VictimAddr, start))
	}
	// The level is occupied until the fill completes.
	if done > lvl.res.freeAt {
		lvl.res.freeAt = done
	}

	// A demand miss may trigger a background next-block prefetch into
	// this level; it occupies the level and the ones below after the
	// demand fill, but never delays the demand itself.
	if lvl.cfg.Prefetch && org != originPrefetch {
		h.maybePrefetchLevel(idx, addr, done)
	}
	return done
}

// maybePrefetchLevel issues a next-block prefetch into downstream level
// idx.
func (h *Hierarchy) maybePrefetchLevel(idx int, addr uint64, done int64) {
	lvl := h.down[idx]
	next := lvl.cache.BlockAddr(addr) + uint64(lvl.cfg.Cache.BlockBytes)
	if lvl.cache.Probe(next) {
		return
	}
	if lvl.recording {
		lvl.prefetches++
	}
	res := lvl.cache.AccessQuiet(next, false)
	if !res.Fill {
		return
	}
	_, tagDone := lvl.res.claim(done, lvl.cfg.CycleNS)
	fillDone := h.fetchBlock(idx+1, next, tagDone, originPrefetch, lvl.fetchRegion(res))
	if res.Writeback {
		h.pushVictim(idx+1, res.VictimAddr, done)
	}
	if fillDone > lvl.res.freeAt {
		lvl.res.freeAt = fillDone
	}
}

// pushVictim enqueues a dirty victim block into the write buffer in front
// of level idx (len(down) means the memory buffer) and returns the time the
// push completes (later than now only when the buffer is full).
func (h *Hierarchy) pushVictim(idx int, addr uint64, now int64) int64 {
	if idx >= len(h.down) {
		return h.memBuf.Push(addr, now)
	}
	return h.down[idx].inBuf.Push(addr, now)
}

// memRead fetches the deepest level's block containing addr from main
// memory: one backplane address cycle, the memory read, and the data
// transfer. It returns the time the full block has arrived.
func (h *Hierarchy) memRead(addr uint64, now int64) int64 {
	h.memBuf.CatchUp(now)
	deepBlock := addr &^ (uint64(h.deepBlockBytes) - 1)
	now = h.memBuf.FlushMatch(deepBlock, now)

	_, addrDone := h.memBus.Reserve(now, h.memBus.Config().CycleNS)
	dataReady := h.mem.Read(addr, addrDone)
	_, done := h.memBus.Reserve(dataReady, h.memBus.TransferNS(h.deepFetchBytes))
	return done
}

// FlushFirstLevels invalidates the first-level caches at time now, pushing
// every dirty block into the write buffer toward the next level, and
// returns the time the flush completes from the CPU's point of view (the
// pushes may stall on a full buffer). It models virtually-indexed L1s that
// cannot hold another address space across a context switch — the paper's
// caches are physical and are NOT flushed; the abl-flush experiment
// quantifies the difference.
func (h *Hierarchy) FlushFirstLevels(now int64) int64 {
	done := now
	for _, fl := range []*firstLevel{h.l1i, h.l1d, h.l1} {
		if fl == nil {
			continue
		}
		for _, dirty := range fl.cache.Flush() {
			done = maxI64(done, h.pushVictim(0, dirty, now))
		}
	}
	return done
}

// levelSink adapts a downstream cache level to wbuf.Downstream: buffered
// victims from the level above are written into it.
type levelSink struct {
	h   *Hierarchy
	idx int
}

func (s *levelSink) FreeAt() int64 { return s.h.down[s.idx].res.freeAt }

func (s *levelSink) Write(addr uint64, start int64) int64 {
	h, lvl := s.h, s.h.down[s.idx]
	var res cache.Result
	if lvl.tags != nil { // recording or playing a tag script
		outcome, victim := lvl.tags.access(lvl.cache, addr, tagWrite)
		res = tagResults[outcome]
		res.VictimAddr = victim
	} else {
		res = lvl.cache.Access(addr, true)
	}
	if res.Fill {
		// Write miss with write-allocate: the level fetches the block
		// from below before absorbing the write.
		start = h.fetchBlock(s.idx+1, addr, start, originStore, lvl.fetchRegion(res))
	}
	if res.WriteDown {
		start = maxI64(start, h.pushVictim(s.idx+1, lvl.cache.BlockAddr(addr), start))
	}
	if res.Writeback {
		h.pushVictim(s.idx+1, res.VictimAddr, start)
	}
	_, done := lvl.res.claim(start, lvl.writeNS)
	return done
}

// memSink adapts main memory (through the backplane bus) to
// wbuf.Downstream.
type memSink struct{ h *Hierarchy }

func (s *memSink) FreeAt() int64 {
	return maxI64(s.h.mem.FreeAt(), s.h.memBus.FreeAt())
}

func (s *memSink) Write(addr uint64, start int64) int64 {
	h := s.h
	// Address beat plus data beats on the backplane, then the memory
	// write operation.
	dur := h.memBus.Config().CycleNS + h.memBus.TransferNS(h.deepBlockBytes)
	_, xferDone := h.memBus.Reserve(start, dur)
	return h.mem.Write(addr, xferDone)
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
