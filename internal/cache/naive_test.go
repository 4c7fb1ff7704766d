package cache

import (
	"math/rand"
	"reflect"
	"testing"
)

// naiveCache is an independent model of Cache for FuzzCacheVsNaive: one
// slice of lines per set, allocated whole, with separate LRU and FIFO
// stamps, no pages and no fast path.
type naiveCache struct {
	cfg       Config
	sets      [][]naiveLine
	clock     uint64
	rng       *rand.Rand
	stats     Stats
	recording bool
	pages     map[uint64]bool // pages a paged Cache must have allocated
}

type naiveLine struct {
	block, subs     uint64 // block number; resident sub-blocks (0: invalid)
	dirty           bool
	lastUse, filled uint64
}

func newNaive(cfg Config) *naiveCache {
	m := &naiveCache{cfg: cfg}
	m.reset()
	return m
}

func (m *naiveCache) reset() {
	m.sets = make([][]naiveLine, m.cfg.NumSets())
	for i := range m.sets {
		m.sets[i] = make([]naiveLine, m.cfg.Ways())
	}
	m.clock, m.stats, m.recording, m.rng = 0, Stats{}, true, nil
	m.pages = map[uint64]bool{}
	if m.cfg.Repl == Random {
		m.rng = rand.New(rand.NewSource(m.cfg.rngSeed()))
	}
}

// find returns addr's set, its sub-block bit and the way holding its
// block, or -1.
func (m *naiveCache) find(addr uint64) (set []naiveLine, si, sub uint64, way int) {
	block := addr / uint64(m.cfg.BlockBytes)
	si = block % uint64(len(m.sets))
	sub = 1 << (addr % uint64(m.cfg.BlockBytes) / uint64(m.cfg.EffectiveFetchBytes()))
	set = m.sets[si]
	for w := range set {
		if set[w].subs != 0 && set[w].block == block {
			return set, si, sub, w
		}
	}
	return set, si, sub, -1
}

func (m *naiveCache) access(addr uint64, write, record bool) Result {
	m.clock++
	counted := record && m.recording
	if counted && write {
		m.stats.WriteRefs++
	} else if counted {
		m.stats.ReadRefs++
	}
	set, si, sub, w := m.find(addr)
	wb := m.cfg.Write == WriteBack
	var res Result
	switch {
	case w >= 0 && set[w].subs&sub != 0:
		set[w].lastUse = m.clock
		res.Hit = true
	case counted && write:
		m.stats.WriteMisses++
	case counted:
		m.stats.ReadMisses++
	}
	if w >= 0 && !res.Hit {
		set[w].lastUse = m.clock
		if counted {
			m.stats.PartialMisses++
		}
	}
	if !res.Hit && write && m.cfg.Alloc == NoWriteAllocate {
		return Result{WriteDown: true}
	}
	if w >= 0 && !res.Hit {
		set[w].subs |= sub
		res.Fill, res.Partial = true, true
	}
	if w < 0 {
		res.Fill, res.Partial = true, m.cfg.SubBlocks() > 1
		w = m.victim(set)
		if set[w].subs != 0 && set[w].dirty {
			res.Writeback, res.VictimAddr = true, set[w].block*uint64(m.cfg.BlockBytes)
			if m.recording {
				m.stats.Writebacks++
			}
		}
		block := addr / uint64(m.cfg.BlockBytes)
		set[w] = naiveLine{block: block, subs: sub, lastUse: m.clock, filled: m.clock}
		m.pages[si/pageSets] = true
	}
	if write && wb {
		set[w].dirty = true
	}
	res.WriteDown = write && !wb
	return res
}

// wantPages is how many pages the Cache must hold: one for an array of at
// most pageSets sets or wholeLines lines, else one per page a fill touched.
func (m *naiveCache) wantPages() int {
	if m.cfg.NumSets() <= pageSets || m.cfg.NumSets()*int64(m.cfg.Ways()) <= wholeLines {
		return 1
	}
	return len(m.pages)
}

func (m *naiveCache) victim(set []naiveLine) int {
	best := 0
	for w := range set {
		switch {
		case set[w].subs == 0:
			return w
		case m.cfg.Repl == LRU && set[w].lastUse < set[best].lastUse,
			m.cfg.Repl == FIFO && set[w].filled < set[best].filled:
			best = w
		}
	}
	if m.cfg.Repl == Random {
		return m.rng.Intn(len(set))
	}
	return best
}

// tryHit takes only a full hit that sends nothing downstream.
func (m *naiveCache) tryHit(addr uint64, write bool) bool {
	set, _, sub, w := m.find(addr)
	if w < 0 || set[w].subs&sub == 0 || write && m.cfg.Write != WriteBack {
		return false
	}
	m.access(addr, write, true)
	return true
}

func (m *naiveCache) invalidate(addr uint64) (present, dirty bool) {
	set, _, _, w := m.find(addr)
	if w < 0 {
		return false, false
	}
	present, dirty = true, set[w].dirty
	set[w] = naiveLine{}
	if m.recording {
		m.stats.Invalidates++
	}
	return present, dirty
}

func (m *naiveCache) flush() (dirty []uint64) {
	for _, set := range m.sets {
		for w := range set {
			if set[w].subs != 0 && set[w].dirty {
				dirty = append(dirty, set[w].block*uint64(m.cfg.BlockBytes))
			}
			set[w] = naiveLine{}
		}
	}
	return dirty
}

func (m *naiveCache) count(dirtyOnly bool) (n int) {
	for _, set := range m.sets {
		for _, l := range set {
			if l.subs != 0 && (l.dirty || !dirtyOnly) {
				n++
			}
		}
	}
	return n
}

// fuzzConfig draws a valid configuration from geo: 1 to 4096 sets of 1
// to 8 ways (or fully associative), at most 8192 lines, so from one page
// to 256, every policy, and sub-blocks of 2 to 8 per block.
func fuzzConfig(geo uint64) Config {
	next := func(n uint64) uint64 { v := geo % n; geo /= n; return v }
	block := 8 << next(4)
	sets, ways := int64(1)<<next(13), 1<<next(4)
	ways = int(min(int64(ways), 8192/sets))
	cfg := Config{
		Name: "F", BlockBytes: block, SizeBytes: sets * int64(ways*block), Assoc: ways,
		Repl: Replacement(next(3)), Write: WritePolicy(next(2)), Alloc: AllocPolicy(next(2)),
		Seed: int64(next(4)),
	}
	if sets == 1 && next(2) == 0 {
		cfg.Assoc = 0
	}
	if k := next(4); k > 0 {
		cfg.FetchBytes = block >> k
	}
	return cfg
}

// allocatedPages counts the pages of c's directory that hold lines.
func (c *Cache) allocatedPages() int {
	n := 0
	for _, page := range c.pages {
		if page != nil {
			n++
		}
	}
	return n
}

// FuzzCacheVsNaive drives a Cache and naiveCache with the same calls and
// compares every result, the statistics, occupancy and dirty count after
// each, and requires CheckIntegrity to pass. A paged cache must hold
// exactly the pages some fill touched since it was built or reset.
func FuzzCacheVsNaive(f *testing.F) {
	// Each op is four bytes: op%32 picks the call (op&1: a write), then the
	// set, block and offset selectors.
	for _, seed := range []struct {
		geo uint64
		ops string
	}{
		// One page, direct-mapped: an empty line's zero tag is no hit.
		{12, "\x0c\x00\x00\x00\x00\x00\x00\x00\x0c\x00\x00\x00\x0d\x00\x01\x00"},
		// One page: 8 sets of 2 ways, 16-byte blocks of two sub-blocks.
		{10049, "\x00\x00\x00\x00\x01\x00\x01\x00\x00\x00\x00\x09\x00\x00\x02\x00\x0c\x00\x01\x00" +
			"\x1a\x00\x00\x00\x18\x00\x00\x00\x01\x03\x03\x00\x19\x00\x00\x00\x1c\x01\x01\x01\x00\x03\x03\x00"},
		// FIFO, 2048 sets of 2 ways (128 pages): a hit must not refresh a
		// fill stamp, and neighbouring sets must not share lines.
		{304, "\x00\x05\x00\x00\x00\x05\x01\x00\x0c\x05\x00\x00\x00\x05\x02\x00\x12\x05\x00\x00\x12\x05\x01\x00" +
			"\x00\x06\x00\x00\x00\x06\x01\x00\x12\x05\x02\x00\x00\xf5\x00\x00\x00\x0c\x00\x00"},
		// Random, write-through, no-write-allocate, 2048 sets of 4 ways.
		{9924, "\x00\xf3\x00\x00\x00\xf3\x01\x00\x00\xf3\x02\x00\x00\xf3\x03\x00\x00\xf3\x04\x00\x01\xf3\x05\x00" +
			"\x0d\xf3\x01\x00\x15\xf3\x02\x00\x00\x07\x00\x00\x1b\x00\x00\x00\x00\xf3\x00\x00"},
		// 4096 direct-mapped sets (256 pages): only a fill allocates a
		// page, and Reset drops them.
		{48, "\x0c\x00\x00\x00\x12\x10\x00\x00\x15\x20\x00\x00\x00\xf0\x01\x00\x0c\xf0\x01\x00\x00\x00\x00\x00" +
			"\x1b\x00\x00\x00\x0c\xf0\x01\x00\x12\x00\x00\x00"},
		// The same with no-write-allocate: a write miss fills nothing.
		{1296, "\x01\x00\x00\x00\x09\x11\x00\x00\x00\x22\x00\x00"},
		// Fully associative, 8 ways, LRU, ten blocks in turn.
		{156, "\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x02\x00\x00\x00\x03\x00\x00\x00\x04\x00\x00\x00\x05\x00" +
			"\x00\x00\x06\x00\x00\x00\x07\x00\x0c\x00\x00\x00\x00\x00\x08\x00\x00\x00\x09\x00\x12\x00\x01\x00"},
	} {
		f.Add(seed.geo, []byte(seed.ops))
	}
	f.Fuzz(func(t *testing.T, geo uint64, ops []byte) {
		drawn := fuzzConfig(geo)
		cfg := drawn
		c, m := MustNew(cfg), newNaive(cfg)
		ops = ops[:min(len(ops), 4*128)]
		for len(ops) >= 4 {
			op, sel, tagSel, off := ops[0], uint64(ops[1]), uint64(ops[2]), uint64(ops[3])
			ops = ops[4:]
			// sel's high nibble picks one of 16 pages spread over the cache
			// from the first to the last, its low nibble a set in that page;
			// tagSel one of ways+2 blocks that map to the set.
			sets := uint64(cfg.NumSets())
			si := sel % sets
			if pages := sets / pageSets; pages > 1 {
				si = (sel>>4)*(pages-1)/15*pageSets + sel&(pageSets-1)
			}
			block := (tagSel%uint64(cfg.Ways()+2))*sets + si
			addr := block*uint64(cfg.BlockBytes) + off%uint64(cfg.BlockBytes)
			write := op&1 != 0
			var got, want any
			switch op % 32 {
			case 0, 1, 2, 3, 4, 5, 6, 7:
				got, want = c.Access(addr, write), m.access(addr, write, true)
			case 8, 9, 10, 11:
				got, want = c.AccessQuiet(addr, write), m.access(addr, write, false)
			case 12, 13, 14, 15, 16, 17:
				got, want = c.TryHit(addr, write), m.tryHit(addr, write)
			case 18, 19, 20:
				got, want = c.Probe(addr), func() bool { _, _, _, w := m.find(addr); return w >= 0 }()
			case 21, 22, 23:
				p, d := c.Invalidate(addr)
				mp, md := m.invalidate(addr)
				got, want = [2]bool{p, d}, [2]bool{mp, md}
			case 24, 25:
				c.SetRecording(write)
				m.recording = write
			case 26:
				got, want = c.Flush(), m.flush()
			case 27:
				c.Reset()
				m.reset()
			case 28, 29:
				// ResetFor takes new policies and a new seed, keeping the
				// array, and on a write also toggles between the drawn size
				// and its double, which changes the set count (the ways when
				// fully associative) and so the array.
				next := cfg
				next.Repl, next.Write, next.Alloc = Replacement(sel%3), WritePolicy(tagSel%2), AllocPolicy(off%2)
				next.Seed = int64(op)
				if write && next.SizeBytes == drawn.SizeBytes {
					next.SizeBytes *= 2
				} else if write {
					next.SizeBytes = drawn.SizeBytes
				}
				if err := c.ResetFor(next); err != nil {
					t.Fatalf("ResetFor(%+v) from %+v: %v", next, cfg, err)
				}
				cfg = next
				m.cfg = next
				m.reset()
			default:
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v: op %d at %#x: cache %+v, model %+v", cfg, op%32, addr, got, want)
			}
			if c.Stats() != m.stats {
				t.Fatalf("%+v: op %d at %#x: stats %+v, model %+v", cfg, op%32, addr, c.Stats(), m.stats)
			}
			if c.Occupancy() != m.count(false) || c.DirtyCount() != m.count(true) {
				t.Fatalf("%+v: op %d at %#x: occupancy %d dirty %d, model %d and %d",
					cfg, op%32, addr, c.Occupancy(), c.DirtyCount(), m.count(false), m.count(true))
			}
			if err := c.CheckIntegrity(); err != nil {
				t.Fatalf("%+v: op %d at %#x: %v", cfg, op%32, addr, err)
			}
			if c.allocatedPages() != m.wantPages() {
				t.Fatalf("%+v: op %d at %#x: %d pages allocated, want %d",
					cfg, op%32, addr, c.allocatedPages(), m.wantPages())
			}
		}
	})
}
