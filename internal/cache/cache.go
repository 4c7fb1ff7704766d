// Package cache implements the set-associative cache model used at every
// level of the simulated hierarchy. The model follows Smith's terminology
// as used by the paper: a cache is characterized by its total data size,
// block size, set size (associativity), replacement policy, and write
// strategy. The model is purely functional with respect to time: it decides
// hits, misses, and evictions, and counts events; the timing consequences
// are imposed by package memsys.
package cache

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"unsafe"
)

// Replacement selects the replacement policy of a cache.
type Replacement uint8

// Replacement policies.
const (
	LRU Replacement = iota
	FIFO
	Random
)

// String returns the policy name.
func (r Replacement) String() string {
	switch r {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	case Random:
		return "random"
	}
	return fmt.Sprintf("replacement(%d)", uint8(r))
}

// ParseReplacement converts a policy name back to a Replacement.
func ParseReplacement(s string) (Replacement, error) {
	switch s {
	case "lru":
		return LRU, nil
	case "fifo":
		return FIFO, nil
	case "random":
		return Random, nil
	}
	return 0, fmt.Errorf("cache: unknown replacement policy %q", s)
}

// WritePolicy selects how writes propagate downstream.
type WritePolicy uint8

// Write policies.
const (
	WriteBack WritePolicy = iota
	WriteThrough
)

// String returns the policy name.
func (w WritePolicy) String() string {
	if w == WriteBack {
		return "write-back"
	}
	return "write-through"
}

// AllocPolicy selects whether a write miss allocates a block.
type AllocPolicy uint8

// Allocation policies.
const (
	WriteAllocate AllocPolicy = iota
	NoWriteAllocate
)

// String returns the policy name.
func (a AllocPolicy) String() string {
	if a == WriteAllocate {
		return "write-allocate"
	}
	return "no-write-allocate"
}

// Config describes a cache organization.
type Config struct {
	Name       string      // for reports, e.g. "L1I", "L2"
	SizeBytes  int64       // total data capacity
	BlockBytes int         // block (line) size: the address-matching unit
	Assoc      int         // set size; 0 means fully associative
	Repl       Replacement // replacement policy within a set
	Write      WritePolicy
	Alloc      AllocPolicy
	Seed       int64 // for Random replacement; fixed for reproducibility
	// FetchBytes selects sub-block placement (the paper's "fetch size"):
	// a miss fetches only FetchBytes, with per-sub-block valid bits, so a
	// later reference to an unfetched part of a resident block misses
	// again ("sector" caches). Zero or BlockBytes disables sub-blocking.
	FetchBytes int
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 {
		return fmt.Errorf("cache %s: size %d must be positive", c.Name, c.SizeBytes)
	}
	if c.BlockBytes <= 0 || !isPow2(int64(c.BlockBytes)) {
		return fmt.Errorf("cache %s: block size %d must be a positive power of two", c.Name, c.BlockBytes)
	}
	if !isPow2(c.SizeBytes) {
		return fmt.Errorf("cache %s: size %d must be a power of two", c.Name, c.SizeBytes)
	}
	if c.SizeBytes < int64(c.BlockBytes) {
		return fmt.Errorf("cache %s: size %d smaller than block size %d", c.Name, c.SizeBytes, c.BlockBytes)
	}
	blocks := c.SizeBytes / int64(c.BlockBytes)
	assoc := int64(c.Assoc)
	if c.Assoc == 0 {
		assoc = blocks
	}
	if assoc < 0 || assoc > blocks {
		return fmt.Errorf("cache %s: associativity %d out of range [1,%d]", c.Name, c.Assoc, blocks)
	}
	if !isPow2(assoc) {
		return fmt.Errorf("cache %s: associativity %d must be a power of two", c.Name, assoc)
	}
	if c.FetchBytes != 0 {
		if !isPow2(int64(c.FetchBytes)) || c.FetchBytes > c.BlockBytes {
			return fmt.Errorf("cache %s: fetch size %d must be a power of two no larger than the block size %d",
				c.Name, c.FetchBytes, c.BlockBytes)
		}
		if c.BlockBytes/c.FetchBytes > 64 {
			return fmt.Errorf("cache %s: more than 64 sub-blocks (%d/%d)", c.Name, c.BlockBytes, c.FetchBytes)
		}
	}
	return nil
}

// SubBlocks returns the number of sub-blocks per block (1 when
// sub-blocking is disabled).
func (c Config) SubBlocks() int {
	if c.FetchBytes == 0 || c.FetchBytes >= c.BlockBytes {
		return 1
	}
	return c.BlockBytes / c.FetchBytes
}

// EffectiveFetchBytes returns the fill granularity.
func (c Config) EffectiveFetchBytes() int {
	if c.FetchBytes == 0 || c.FetchBytes > c.BlockBytes {
		return c.BlockBytes
	}
	return c.FetchBytes
}

// rngSeed derives the seed of the cache's private replacement PRNG from
// the configuration and name. Every cache owns its own source, so Random
// replacement is deterministic regardless of how many simulations run in
// parallel, and distinct caches (or the same cache at different design
// points) draw decorrelated sequences. Config.Seed perturbs the whole
// family when a different sample is wanted.
func (c Config) rngSeed() int64 {
	h := fnv.New64a()
	h.Write([]byte(c.Name))
	var buf [40]byte
	put := func(i int, v int64) {
		for b := 0; b < 8; b++ {
			buf[i*8+b] = byte(v >> (8 * b))
		}
	}
	put(0, c.SizeBytes)
	put(1, int64(c.BlockBytes))
	put(2, int64(c.Assoc))
	put(3, int64(c.FetchBytes))
	put(4, c.Seed)
	h.Write(buf[:])
	return int64(h.Sum64())
}

// NumSets returns the number of sets implied by the configuration.
func (c Config) NumSets() int64 {
	blocks := c.SizeBytes / int64(c.BlockBytes)
	if c.Assoc == 0 {
		return 1
	}
	return blocks / int64(c.Assoc)
}

// Ways returns the effective associativity (number of ways per set).
func (c Config) Ways() int {
	if c.Assoc == 0 {
		return int(c.SizeBytes / int64(c.BlockBytes))
	}
	return c.Assoc
}

func isPow2(v int64) bool { return v > 0 && v&(v-1) == 0 }

// Stats counts the events observed by a cache. Following the paper, read
// statistics (ifetches + loads) are the ones used for miss ratios; write
// statistics are kept separately.
type Stats struct {
	ReadRefs    int64 // read accesses presented to the cache
	ReadMisses  int64
	WriteRefs   int64 // write accesses presented to the cache
	WriteMisses int64
	Writebacks  int64 // dirty blocks evicted (write-back caches)
	Invalidates int64 // blocks removed by Invalidate
	// PartialMisses counts the subset of misses whose tag matched but
	// whose sub-block was not resident (sub-blocked caches only).
	PartialMisses int64
}

// LocalReadMissRatio returns read misses / read references presented to
// this cache (the paper's "local miss ratio"). It returns 0 when the cache
// saw no reads.
func (s Stats) LocalReadMissRatio() float64 {
	if s.ReadRefs == 0 {
		return 0
	}
	return float64(s.ReadMisses) / float64(s.ReadRefs)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.ReadRefs += other.ReadRefs
	s.ReadMisses += other.ReadMisses
	s.WriteRefs += other.WriteRefs
	s.WriteMisses += other.WriteMisses
	s.Writebacks += other.Writebacks
	s.Invalidates += other.Invalidates
	s.PartialMisses += other.PartialMisses
}

type line struct {
	tag uint64
	// validMask has one bit per resident sub-block; zero means the line is
	// invalid. Caches without sub-blocking use bit 0 only.
	validMask uint64
	// stamp orders replacement: the fill time under FIFO, the last use
	// under LRU and Random (where only CheckIntegrity reads it).
	stamp uint64
	dirty bool
}

func (l *line) valid() bool { return l.validMask != 0 }

// A large tag array is kept in pages of pageSets sets, each allocated by
// the first fill of one of its sets, so that a cache costs the sets a run
// touches rather than its capacity. An array of at most wholeLines lines
// (every first level the paper builds) is one page, allocated by New.
// A set never spans two pages.
const (
	pageBits   = 4
	pageSets   = 1 << pageBits
	wholeLines = 2048
)

// Cache is a set-associative cache. It is not safe for concurrent use.
type Cache struct {
	cfg Config
	// lines is the whole array of a one-page cache, set si at
	// lines[si*ways:]; nil when the cache is paged.
	lines []line
	// pages is the page directory: page p holds sets p<<pageBits onwards
	// (the one page of a one-page cache is lines). A nil page was never
	// filled, and all its lines are invalid.
	pages      [][]line
	ways       int
	wayBits    uint
	blockBits  uint
	fetchBits  uint
	subBlocked bool
	setMask    uint64
	clock      uint64 // logical access counter for LRU/FIFO ordering
	rng        *rand.Rand
	stats      Stats
	recording  bool
	// dirtyMade and dirtyDropped are functional (never gated on recording)
	// counters of clean→dirty transitions and of dirty lines leaving the
	// cache (eviction, invalidation, flush). CheckIntegrity balances them
	// against the resident dirty population: a leak on either side means a
	// lost or duplicated writeback.
	dirtyMade    int64
	dirtyDropped int64
}

// onePage reports whether an array of sets × ways lines is kept whole.
func onePage(sets, ways int64) bool {
	return sets <= pageSets || sets*ways <= wholeLines
}

// AllocBytes is what the tag arrays of a valid c take once every set
// has been filled: every page of line records and the page directory.
func (c Config) AllocBytes() int64 {
	sets, ways := c.NumSets(), int64(c.Ways())
	pages := int64(1)
	if !onePage(sets, ways) {
		pages = sets >> pageBits
	}
	return sets*ways*int64(unsafe.Sizeof(line{})) + pages*int64(unsafe.Sizeof([]line(nil)))
}

// New constructs a cache from a validated configuration: ResetFor on an
// empty cache. It allocates the page directory, and the whole array only
// when it is one page.
func New(cfg Config) (*Cache, error) {
	c := &Cache{}
	if err := c.ResetFor(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset returns the cache to its just-constructed state: every line
// invalid, counters zeroed, recording on, and the replacement PRNG
// reseeded to its deterministic initial seed. Reset-then-run is
// indistinguishable from constructing a fresh cache.
func (c *Cache) Reset() {
	_ = c.ResetFor(c.cfg) // c.cfg passed Validate when the cache adopted it
}

// ResetFor leaves the cache exactly as New(cfg) would build it. It keeps
// the tag array when cfg has the same set count and ways, clearing it,
// and allocates cfg's array otherwise; every other field is rebuilt from
// cfg. An invalid cfg is refused before anything changes.
func (c *Cache) ResetFor(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	sets, ways := cfg.NumSets(), cfg.Ways()
	lines, pages := c.lines, c.pages
	switch {
	case ways == c.ways && uint64(sets-1) == c.setMask: // an empty cache has no ways
		// Only an access ticks the clock and only an access makes a line
		// valid, so a cache whose clock is still zero has nothing to clear:
		// a replay that never touched this array resets it for free. A
		// paged cache drops its pages, as New never allocated them.
		if c.clock != 0 {
			if lines != nil {
				clear(lines)
			} else {
				clear(pages)
			}
		}
	case onePage(sets, int64(ways)):
		lines = make([]line, sets*int64(ways))
		pages = [][]line{lines}
	default:
		lines, pages = nil, make([][]line, sets>>pageBits)
	}
	*c = Cache{
		cfg:       cfg,
		lines:     lines,
		pages:     pages,
		ways:      ways,
		wayBits:   log2(int64(ways)),
		blockBits: log2(int64(cfg.BlockBytes)),
		setMask:   uint64(sets - 1),
		recording: true,
	}
	if cfg.SubBlocks() > 1 {
		c.fetchBits = log2(int64(cfg.EffectiveFetchBytes()))
		c.subBlocked = true
	}
	if cfg.Repl == Random {
		c.rng = rand.New(rand.NewSource(cfg.rngSeed()))
	}
	return nil
}

// MustNew is New that panics on configuration errors; intended for tests
// and for configurations already validated elsewhere.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

func log2(v int64) uint {
	var b uint
	for v > 1 {
		v >>= 1
		b++
	}
	return b
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the counters gathered so far.
func (c *Cache) Stats() Stats { return c.stats }

// SetRecording enables or disables statistics gathering. Accesses made with
// recording disabled still update cache state; this implements the paper's
// cold-start handling where the warm-up prefix of the trace is simulated
// but not counted.
func (c *Cache) SetRecording(on bool) { c.recording = on }

// ResetStats zeroes the counters without disturbing cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// BlockAddr returns the block-aligned address containing addr.
func (c *Cache) BlockAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.BlockBytes) - 1)
}

// The shifts by a field mask it with 63 so that the compiler can drop its
// check for a shift of 64 or more.
func (c *Cache) setIndex(addr uint64) uint64 {
	return (addr >> (c.blockBits & 63)) & c.setMask
}

func (c *Cache) tag(addr uint64) uint64 {
	return addr >> (c.blockBits & 63)
}

// subMask returns the valid-mask bit for addr's sub-block (bit 0 when
// sub-blocking is off).
func (c *Cache) subMask(addr uint64) uint64 {
	if !c.subBlocked {
		return 1
	}
	sub := (addr & (uint64(c.cfg.BlockBytes) - 1)) >> c.fetchBits
	return 1 << sub
}

// Result reports the outcome of an access.
type Result struct {
	Hit bool
	// Fill is true when the access allocates a block, i.e. downstream must
	// supply it (read miss, or write miss under write-allocate).
	Fill bool
	// WriteDown is true when the access itself must be propagated
	// downstream as a write (write-through caches, or write misses under
	// no-write-allocate).
	WriteDown bool
	// Writeback reports that a dirty victim was evicted; VictimAddr is its
	// block address.
	Writeback  bool
	VictimAddr uint64
	// Partial reports that the fill covers only the referenced sub-block
	// (fetch unit) rather than the whole block.
	Partial bool
}

// Access performs a read (isWrite false) or write (isWrite true) of addr
// and returns the outcome. The caller (package memsys) is responsible for
// acting on Fill, WriteDown, and Writeback.
func (c *Cache) Access(addr uint64, isWrite bool) Result {
	return c.access(addr, isWrite, true)
}

// AccessQuiet is Access without statistics recording. The hierarchy uses it
// for block fetches triggered by store misses, so that read miss ratios —
// which the paper defines over loads and instruction fetches only — are not
// polluted by write-allocate traffic.
func (c *Cache) AccessQuiet(addr uint64, isWrite bool) Result {
	return c.access(addr, isWrite, false)
}

// set returns the ways of set si, or nil when its page was never filled.
func (c *Cache) set(si uint64) []line {
	if c.lines != nil {
		lo := si << (c.wayBits & 63)
		return c.lines[lo : lo+uint64(c.ways)]
	}
	page := c.pages[si>>pageBits]
	if page == nil {
		return nil
	}
	lo := (si & (pageSets - 1)) << (c.wayBits & 63)
	return page[lo : lo+uint64(c.ways)]
}

// fillSet returns the ways of set si, allocating its page first if no
// fill has touched it yet.
func (c *Cache) fillSet(si uint64) []line {
	if set := c.set(si); set != nil {
		return set
	}
	c.pages[si>>pageBits] = make([]line, pageSets<<c.wayBits)
	return c.set(si)
}

// TryHit is the hit-only fast path in front of Access. When the access is
// a full hit that sends nothing downstream — a read hit, or a write hit in
// a write-back cache — it makes exactly the state and statistics updates
// Access would (clock, LRU stamp, reference count, dirty bit) and returns
// true. Any other outcome — a miss, a sub-block miss, a write-through
// store — returns false with the cache untouched, and the caller must
// present the access to Access. Replacement draws happen only on fills, so
// the Random policy's PRNG sequence is the same either way.
func (c *Cache) TryHit(addr uint64, isWrite bool) bool {
	if isWrite && c.cfg.Write != WriteBack {
		return false
	}
	si, tag, mask := c.setIndex(addr), c.tag(addr), c.subMask(addr)
	if c.ways == 1 && c.lines != nil {
		// Direct-mapped in one page: one compare decides.
		if l := &c.lines[si]; l.tag == tag && l.validMask&mask != 0 {
			c.hit(l, isWrite)
			return true
		}
		return false
	}
	set := c.set(si)
	for i := range set {
		l := &set[i]
		if l.tag != tag || !l.valid() {
			continue
		}
		if l.validMask&mask == 0 {
			return false
		}
		c.hit(l, isWrite)
		return true
	}
	return false
}

// hit makes TryHit's updates for a full hit on l.
func (c *Cache) hit(l *line, isWrite bool) {
	c.clock++
	if c.cfg.Repl != FIFO {
		l.stamp = c.clock
	}
	if isWrite {
		if c.recording {
			c.stats.WriteRefs++
		}
		c.markDirty(l)
	} else if c.recording {
		c.stats.ReadRefs++
	}
}

func (c *Cache) access(addr uint64, isWrite, record bool) Result {
	c.clock++
	si := c.setIndex(addr)
	set := c.set(si)
	tag := c.tag(addr)
	mask := c.subMask(addr)

	if record && c.recording {
		if isWrite {
			c.stats.WriteRefs++
		} else {
			c.stats.ReadRefs++
		}
	}

	noteMiss := func(partial bool) {
		if !record || !c.recording {
			return
		}
		if isWrite {
			c.stats.WriteMisses++
		} else {
			c.stats.ReadMisses++
		}
		if partial {
			c.stats.PartialMisses++
		}
	}

	for i := range set {
		if !set[i].valid() || set[i].tag != tag {
			continue
		}
		if c.cfg.Repl != FIFO {
			set[i].stamp = c.clock
		}
		if set[i].validMask&mask != 0 {
			// Full hit.
			var res Result
			res.Hit = true
			if isWrite {
				if c.cfg.Write == WriteBack {
					c.markDirty(&set[i])
				} else {
					res.WriteDown = true
				}
			}
			return res
		}
		// Sub-block miss: the tag matches but this sub-block was never
		// fetched; fill just the sub-block, no eviction.
		noteMiss(true)
		if isWrite && c.cfg.Alloc == NoWriteAllocate {
			return Result{WriteDown: true}
		}
		set[i].validMask |= mask
		res := Result{Fill: true, Partial: true}
		if isWrite {
			if c.cfg.Write == WriteBack {
				c.markDirty(&set[i])
			} else {
				res.WriteDown = true
			}
		}
		return res
	}

	// Miss.
	noteMiss(false)
	if isWrite && c.cfg.Alloc == NoWriteAllocate {
		return Result{WriteDown: true}
	}

	res := Result{Fill: true}
	if c.subBlocked {
		res.Partial = true // only the referenced sub-block is fetched
	}
	if set == nil {
		set = c.fillSet(si)
	}
	victim := c.victim(set)
	if set[victim].valid() && set[victim].dirty {
		res.Writeback = true
		res.VictimAddr = set[victim].tag << c.blockBits
		c.dirtyDropped++
		// Writebacks are functional events rather than a read/write
		// classification, so they are counted even for quiet accesses.
		if c.recording {
			c.stats.Writebacks++
		}
	}
	dirty := isWrite && c.cfg.Write == WriteBack
	if dirty {
		c.dirtyMade++
	}
	set[victim] = line{
		tag:       tag,
		validMask: mask,
		dirty:     dirty,
		stamp:     c.clock,
	}
	if isWrite && c.cfg.Write == WriteThrough {
		res.WriteDown = true
	}
	return res
}

// victim picks the way to replace in set: an invalid way if one exists,
// otherwise the way with the oldest stamp (last use under LRU, fill under
// FIFO), or a random way.
func (c *Cache) victim(set []line) int {
	for i := range set {
		if !set[i].valid() {
			return i
		}
	}
	if c.cfg.Repl == Random {
		return c.rng.Intn(len(set))
	}
	best := 0
	for i := 1; i < len(set); i++ {
		if set[i].stamp < set[best].stamp {
			best = i
		}
	}
	return best
}

// Probe reports whether the block containing addr is present, without
// disturbing replacement state or statistics.
func (c *Cache) Probe(addr uint64) bool {
	set := c.set(c.setIndex(addr))
	tag := c.tag(addr)
	for i := range set {
		if set[i].valid() && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Invalidate removes the block containing addr if present, returning
// whether it was present and whether it was dirty. Used to model explicit
// flushes and multi-level consistency actions.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	set := c.set(c.setIndex(addr))
	tag := c.tag(addr)
	for i := range set {
		if set[i].valid() && set[i].tag == tag {
			present, dirty = true, set[i].dirty
			if dirty {
				c.dirtyDropped++
			}
			set[i] = line{}
			if c.recording {
				c.stats.Invalidates++
			}
			return present, dirty
		}
	}
	return false, false
}

// Flush invalidates every block, returning the block addresses of all
// dirty lines (the writeback set).
func (c *Cache) Flush() []uint64 {
	var dirty []uint64
	for _, page := range c.pages {
		for i := range page {
			if l := &page[i]; l.valid() && l.dirty {
				dirty = append(dirty, l.tag<<c.blockBits)
				c.dirtyDropped++
			}
		}
		clear(page)
	}
	return dirty
}
