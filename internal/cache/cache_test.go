package cache

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"
)

func smallConfig() Config {
	return Config{
		Name:       "t",
		SizeBytes:  256,
		BlockBytes: 16,
		Assoc:      2,
		Repl:       LRU,
		Write:      WriteBack,
		Alloc:      WriteAllocate,
	}
}

func TestConfigValidate(t *testing.T) {
	good := smallConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero size", func(c *Config) { c.SizeBytes = 0 }},
		{"negative size", func(c *Config) { c.SizeBytes = -4 }},
		{"non-pow2 size", func(c *Config) { c.SizeBytes = 300 }},
		{"zero block", func(c *Config) { c.BlockBytes = 0 }},
		{"non-pow2 block", func(c *Config) { c.BlockBytes = 24 }},
		{"block > size", func(c *Config) { c.SizeBytes = 8; c.BlockBytes = 16 }},
		{"assoc > blocks", func(c *Config) { c.Assoc = 64 }},
		{"non-pow2 assoc", func(c *Config) { c.Assoc = 3 }},
		{"negative assoc", func(c *Config) { c.Assoc = -1 }},
	}
	for _, tc := range cases {
		cfg := smallConfig()
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: config accepted, want error", tc.name)
		}
	}
}

func TestConfigGeometry(t *testing.T) {
	cfg := smallConfig() // 256 B, 16 B blocks, 2-way: 16 blocks, 8 sets
	if got := cfg.NumSets(); got != 8 {
		t.Errorf("NumSets = %d, want 8", got)
	}
	if got := cfg.Ways(); got != 2 {
		t.Errorf("Ways = %d, want 2", got)
	}
	cfg.Assoc = 0 // fully associative
	if got := cfg.NumSets(); got != 1 {
		t.Errorf("fully-assoc NumSets = %d, want 1", got)
	}
	if got := cfg.Ways(); got != 16 {
		t.Errorf("fully-assoc Ways = %d, want 16", got)
	}
}

func TestPolicyStrings(t *testing.T) {
	if LRU.String() != "lru" || FIFO.String() != "fifo" || Random.String() != "random" {
		t.Error("replacement names wrong")
	}
	if Replacement(9).String() == "" {
		t.Error("unknown replacement must still format")
	}
	if WriteBack.String() != "write-back" || WriteThrough.String() != "write-through" {
		t.Error("write policy names wrong")
	}
	if WriteAllocate.String() != "write-allocate" || NoWriteAllocate.String() != "no-write-allocate" {
		t.Error("alloc policy names wrong")
	}
	for _, name := range []string{"lru", "fifo", "random"} {
		r, err := ParseReplacement(name)
		if err != nil || r.String() != name {
			t.Errorf("ParseReplacement(%q) = %v, %v", name, r, err)
		}
	}
	if _, err := ParseReplacement("plru"); err == nil {
		t.Error("ParseReplacement(plru) succeeded")
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := MustNew(smallConfig())
	res := c.Access(0x1000, false)
	if res.Hit || !res.Fill {
		t.Fatalf("first access: %+v, want miss+fill", res)
	}
	res = c.Access(0x1008, false) // same 16-byte block
	if !res.Hit {
		t.Fatalf("second access to same block: %+v, want hit", res)
	}
	s := c.Stats()
	if s.ReadRefs != 2 || s.ReadMisses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way set: fill two blocks in the same set, touch the first,
	// insert a third; the second must be evicted.
	c := MustNew(smallConfig()) // 8 sets of 2; set stride = 16*8 = 128 B
	a, b, d := uint64(0), uint64(128), uint64(256)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is now MRU
	c.Access(d, false) // evicts b
	if !c.Probe(a) {
		t.Error("a evicted, want resident")
	}
	if c.Probe(b) {
		t.Error("b resident, want evicted")
	}
	if !c.Probe(d) {
		t.Error("d not resident")
	}
}

func TestFIFOReplacement(t *testing.T) {
	cfg := smallConfig()
	cfg.Repl = FIFO
	c := MustNew(cfg)
	a, b, d := uint64(0), uint64(128), uint64(256)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // touching a must NOT save it under FIFO
	c.Access(d, false) // evicts a (oldest fill)
	if c.Probe(a) {
		t.Error("a resident, want evicted under FIFO")
	}
	if !c.Probe(b) || !c.Probe(d) {
		t.Error("b or d missing")
	}
}

func TestRandomReplacementIsDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []bool {
		cfg := smallConfig()
		cfg.Repl = Random
		cfg.Seed = seed
		c := MustNew(cfg)
		var hits []bool
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 500; i++ {
			addr := uint64(rng.Intn(32)) * 128 // all in set 0
			hits = append(hits, c.Access(addr, false).Hit)
		}
		return hits
	}
	a, b := run(1), run(1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different behaviour")
		}
	}
}

func TestWriteBackDirtyEviction(t *testing.T) {
	cfg := smallConfig()
	cfg.Assoc = 1 // direct-mapped: 16 sets... size 256/16 = 16 blocks
	c := MustNew(cfg)
	setStride := uint64(16 * 16) // block * sets
	res := c.Access(0x0, true)   // write miss, allocate, dirty
	if res.Hit || !res.Fill {
		t.Fatalf("write miss: %+v", res)
	}
	res = c.Access(setStride, false) // read maps to same set, evicts dirty block
	if !res.Writeback || res.VictimAddr != 0 {
		t.Fatalf("expected writeback of block 0, got %+v", res)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestWriteThrough(t *testing.T) {
	cfg := smallConfig()
	cfg.Write = WriteThrough
	c := MustNew(cfg)
	res := c.Access(0x40, true) // miss, write-allocate + write-through
	if !res.WriteDown {
		t.Errorf("write-through miss must propagate: %+v", res)
	}
	res = c.Access(0x40, true) // hit
	if !res.Hit || !res.WriteDown {
		t.Errorf("write-through hit must propagate: %+v", res)
	}
	// Write-through lines are never dirty, so eviction never writes back.
	if _, dirty := c.Invalidate(0x40); dirty {
		t.Error("write-through line marked dirty")
	}
}

func TestNoWriteAllocate(t *testing.T) {
	cfg := smallConfig()
	cfg.Alloc = NoWriteAllocate
	c := MustNew(cfg)
	res := c.Access(0x80, true)
	if res.Fill || !res.WriteDown {
		t.Fatalf("no-write-allocate miss: %+v", res)
	}
	if c.Probe(0x80) {
		t.Error("block allocated despite no-write-allocate")
	}
	if c.Stats().WriteMisses != 1 {
		t.Errorf("write misses = %d, want 1", c.Stats().WriteMisses)
	}
}

func TestInvalidateAndFlush(t *testing.T) {
	c := MustNew(smallConfig())
	c.Access(0x10, true) // dirty
	c.Access(0x200, false)
	present, dirty := c.Invalidate(0x10)
	if !present || !dirty {
		t.Errorf("Invalidate(0x10) = %v, %v, want true, true", present, dirty)
	}
	if present, _ = c.Invalidate(0x10); present {
		t.Error("second Invalidate found the block")
	}
	c.Access(0x300, true)
	dirtyList := c.Flush()
	if len(dirtyList) != 1 || dirtyList[0] != 0x300 {
		t.Errorf("Flush dirty list = %v, want [0x300]", dirtyList)
	}
	if c.Occupancy() != 0 {
		t.Errorf("occupancy after flush = %d", c.Occupancy())
	}
}

func TestRecordingToggle(t *testing.T) {
	c := MustNew(smallConfig())
	c.SetRecording(false)
	c.Access(0x1000, false)
	if c.Stats().ReadRefs != 0 {
		t.Error("stats recorded while disabled")
	}
	c.SetRecording(true)
	c.Access(0x1000, false) // warm: hit
	s := c.Stats()
	if s.ReadRefs != 1 || s.ReadMisses != 0 {
		t.Errorf("stats = %+v, want 1 ref 0 misses", s)
	}
	c.ResetStats()
	if c.Stats() != (Stats{}) {
		t.Error("ResetStats did not zero stats")
	}
}

// TestResetClearsEveryLine: after accesses have filled lines — dirty and
// clean, whole and sub-blocked, in every set and every page — Reset leaves
// a cache equal to a freshly constructed one, replacement PRNG included.
func TestResetClearsEveryLine(t *testing.T) {
	multiPage := smallConfig()
	multiPage.SizeBytes = 64 << 10 // 2048 sets of 2 ways: 128 pages
	for _, geo := range []struct {
		cfg  Config
		refs int
	}{
		{smallConfig(), 500},
		{multiPage, 100000},
	} {
		for _, repl := range []Replacement{LRU, FIFO, Random} {
			cfg := geo.cfg
			cfg.Repl = repl
			cfg.FetchBytes = 8
			c := MustNew(cfg)
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < geo.refs; i++ {
				c.Access(uint64(rng.Intn(16*int(cfg.SizeBytes))), rng.Intn(2) == 0)
			}
			if c.Occupancy() != int(cfg.SizeBytes)/cfg.BlockBytes {
				t.Fatalf("%v: only %d lines filled", repl, c.Occupancy())
			}
			c.Reset()
			if !reflect.DeepEqual(c, MustNew(cfg)) {
				t.Errorf("%v: Reset after use differs from New", repl)
			}
		}
	}
}

// TestResetFreshIsNoOp: a cache no access has touched — probes, a TryHit
// miss, Flush and Invalidate never tick the clock — resets without a sweep
// and still equals New's.
func TestResetFreshIsNoOp(t *testing.T) {
	cfg := smallConfig()
	c := MustNew(cfg)
	c.Reset()
	if !reflect.DeepEqual(c, MustNew(cfg)) {
		t.Fatal("Reset of a fresh cache differs from New")
	}
	c.Probe(0x40)
	c.TryHit(0x40, false)
	c.Invalidate(0x40)
	c.Flush()
	if c.clock != 0 {
		t.Fatalf("clock = %d after non-accesses, want 0", c.clock)
	}
	c.Reset()
	if !reflect.DeepEqual(c, MustNew(cfg)) {
		t.Fatal("Reset after non-accesses differs from New")
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{ReadRefs: 10, ReadMisses: 3}
	if got := s.LocalReadMissRatio(); got != 0.3 {
		t.Errorf("LocalReadMissRatio = %v, want 0.3", got)
	}
	if (Stats{}).LocalReadMissRatio() != 0 {
		t.Error("empty stats miss ratio must be 0")
	}
	var sum Stats
	sum.Add(s)
	sum.Add(Stats{WriteRefs: 2, Writebacks: 1, Invalidates: 4, WriteMisses: 1})
	want := Stats{ReadRefs: 10, ReadMisses: 3, WriteRefs: 2, WriteMisses: 1, Writebacks: 1, Invalidates: 4}
	if sum != want {
		t.Errorf("Add result = %+v, want %+v", sum, want)
	}
}

func TestBlockAddr(t *testing.T) {
	c := MustNew(smallConfig())
	if got := c.BlockAddr(0x1234); got != 0x1230 {
		t.Errorf("BlockAddr(0x1234) = %#x, want 0x1230", got)
	}
}

// referenceModel is a trivially correct fully-associative LRU cache used to
// cross-check the optimized implementation.
type referenceModel struct {
	capacity int
	order    []uint64 // MRU first
}

func (m *referenceModel) access(block uint64) bool {
	for i, b := range m.order {
		if b == block {
			copy(m.order[1:i+1], m.order[:i])
			m.order[0] = block
			return true
		}
	}
	if len(m.order) < m.capacity {
		m.order = append(m.order, 0)
	}
	copy(m.order[1:], m.order[:len(m.order)-1])
	m.order[0] = block
	return false
}

// Property: a fully-associative LRU Cache agrees exactly with the reference
// stack model on hits and misses.
func TestQuickFullyAssocLRUMatchesReference(t *testing.T) {
	f := func(seed int64, raw []byte) bool {
		cfg := Config{
			Name:       "fa",
			SizeBytes:  512,
			BlockBytes: 16,
			Assoc:      0, // fully associative: 32 blocks
			Repl:       LRU,
			Write:      WriteBack,
			Alloc:      WriteAllocate,
		}
		c := MustNew(cfg)
		ref := &referenceModel{capacity: 32}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			block := uint64(rng.Intn(64))
			addr := block*16 + uint64(rng.Intn(16))
			got := c.Access(addr, rng.Intn(4) == 0).Hit
			want := ref.access(block)
			if got != want {
				return false
			}
		}
		_ = raw
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: immediately repeated accesses to the same address always hit,
// for every policy combination.
func TestQuickRepeatAccessHits(t *testing.T) {
	f := func(addrs []uint64, repl, write, alloc uint8) bool {
		cfg := Config{
			Name:       "q",
			SizeBytes:  1024,
			BlockBytes: 32,
			Assoc:      4,
			Repl:       Replacement(repl % 3),
			Write:      WritePolicy(write % 2),
			Alloc:      AllocPolicy(alloc % 2),
		}
		c := MustNew(cfg)
		for _, a := range addrs {
			c.Access(a, false)
			if !c.Access(a, false).Hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: occupancy never exceeds capacity, and writebacks never exceed
// write references (every dirty block stems from at least one write).
func TestQuickInvariants(t *testing.T) {
	f := func(seed int64) bool {
		cfg := Config{
			Name:       "inv",
			SizeBytes:  512,
			BlockBytes: 16,
			Assoc:      2,
			Repl:       LRU,
			Write:      WriteBack,
			Alloc:      WriteAllocate,
		}
		c := MustNew(cfg)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 3000; i++ {
			c.Access(uint64(rng.Intn(4096)), rng.Intn(3) == 0)
			if c.Occupancy() > 32 {
				return false
			}
		}
		s := c.Stats()
		return s.Writebacks <= s.WriteRefs && s.ReadMisses <= s.ReadRefs && s.WriteMisses <= s.WriteRefs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: a larger fully-associative LRU cache never has more misses than
// a smaller one on the same trace (LRU inclusion property).
func TestQuickLRUInclusion(t *testing.T) {
	f := func(seed int64) bool {
		mk := func(size int64) *Cache {
			return MustNew(Config{
				Name: "incl", SizeBytes: size, BlockBytes: 16, Assoc: 0,
				Repl: LRU, Write: WriteBack, Alloc: WriteAllocate,
			})
		}
		small, big := mk(256), mk(1024)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 4000; i++ {
			addr := uint64(rng.Intn(2048))
			small.Access(addr, false)
			big.Access(addr, false)
		}
		return big.Stats().ReadMisses <= small.Stats().ReadMisses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAccess(b *testing.B) {
	c := MustNew(Config{
		Name: "bench", SizeBytes: 64 * 1024, BlockBytes: 32, Assoc: 2,
		Repl: LRU, Write: WriteBack, Alloc: WriteAllocate,
	})
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&4095], i&7 == 0)
	}
}

// allocCache keeps TestAllocBytesMatchesNew's cache on the heap: where
// New is inlined, a cache held in a local could stay on the stack, and
// the test would subtract a struct that was never allocated.
var allocCache *Cache

// TestAllocBytesMatchesNew: New allocates at most the page directory and
// one page, and filling every set brings the tag arrays to AllocBytes,
// from direct-mapped to fully associative and from one page to many.
func TestAllocBytesMatchesNew(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "dm", SizeBytes: 1 << 20, BlockBytes: 32, Assoc: 1},
		{Name: "4way", SizeBytes: 1 << 20, BlockBytes: 16, Assoc: 4},
		{Name: "fa", SizeBytes: 64 << 10, BlockBytes: 32},
		{Name: "l1", SizeBytes: 2 << 10, BlockBytes: 16, Assoc: 1},
	} {
		allocated := func() int64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return int64(ms.TotalAlloc)
		}
		start := allocated()
		var err error
		allocCache, err = New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := allocCache
		built := allocated() - start - int64(unsafe.Sizeof(*c))
		sets, ways := cfg.NumSets(), int64(cfg.Ways())
		pages := sets / pageSets
		if onePage(sets, ways) {
			pages = 1
		}
		page := sets / pages * ways * int64(unsafe.Sizeof(line{}))
		dir := pages * int64(unsafe.Sizeof([]line(nil)))
		// Size classes and whole runtime pages round allocations up, and
		// the runtime counts a small-object span whole when it takes it.
		const rounding = 16 << 10
		if built > dir+page+rounding {
			t.Errorf("%s: New allocated %d bytes of tag arrays, more than the directory (%d) and one page (%d)",
				cfg.Name, built, dir, page)
		}
		for si := int64(0); si < sets; si++ {
			for w := int64(0); w < ways; w++ {
				c.Access(uint64((w*sets+si)*int64(cfg.BlockBytes)), false)
			}
		}
		if c.Occupancy() != int(sets*ways) {
			t.Fatalf("%s: %d of %d lines filled", cfg.Name, c.Occupancy(), sets*ways)
		}
		got := allocated() - start - int64(unsafe.Sizeof(*c))
		if want := cfg.AllocBytes(); got < want || got > want+rounding {
			t.Errorf("%s: filling every set allocated %d bytes of tag arrays, AllocBytes says %d", cfg.Name, got, want)
		}
	}
	allocCache = nil
}
