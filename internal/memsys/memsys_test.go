package memsys

import (
	"testing"
	"testing/quick"

	"mlcache/internal/cache"
	"mlcache/internal/mainmem"
	"mlcache/internal/trace"
)

// baseConfig is the paper's base machine: split 4 KB L1 (2 KB I + 2 KB D),
// direct-mapped, 16 B blocks, write-back, cycling at the 10 ns CPU rate;
// 512 KB direct-mapped L2 with 32 B blocks and a 30 ns cycle; 4-entry write
// buffers; base memory timing.
func baseConfig() Config {
	l1 := func(name string) LevelConfig {
		return LevelConfig{
			Cache: cache.Config{
				Name: name, SizeBytes: 2 * 1024, BlockBytes: 16, Assoc: 1,
				Repl: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
			},
			CycleNS: 10,
		}
	}
	return Config{
		CPUCycleNS: 10,
		SplitL1:    true,
		L1I:        l1("L1I"),
		L1D:        l1("L1D"),
		Down: []LevelConfig{{
			Cache: cache.Config{
				Name: "L2", SizeBytes: 512 * 1024, BlockBytes: 32, Assoc: 1,
				Repl: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
			},
			CycleNS: 30,
		}},
		Memory: mainmem.Base(),
	}
}

func TestConfigValidate(t *testing.T) {
	if err := baseConfig().Validate(); err != nil {
		t.Fatalf("base config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero cpu cycle", func(c *Config) { c.CPUCycleNS = 0 }},
		{"bad l1", func(c *Config) { c.L1I.Cache.SizeBytes = 0 }},
		{"zero level cycle", func(c *Config) { c.Down[0].CycleNS = 0 }},
		{"negative write cycles", func(c *Config) { c.Down[0].WriteCycles = -1 }},
		{"shrinking block", func(c *Config) { c.Down[0].Cache.BlockBytes = 8 }},
		{"bad memory", func(c *Config) { c.Memory.ReadNS = 0 }},
		{"negative bus width", func(c *Config) { c.MemBusWidthBytes = -1 }},
		{"negative bus cycle", func(c *Config) { c.MemBusCycleNS = -1 }},
	}
	for _, tc := range cases {
		cfg := baseConfig()
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted", tc.name)
		}
	}
}

func TestDeepestLevel(t *testing.T) {
	cfg := baseConfig()
	if got := cfg.DeepestLevel().Cache.Name; got != "L2" {
		t.Errorf("DeepestLevel = %s, want L2", got)
	}
	cfg.Down = nil
	if got := cfg.DeepestLevel().Cache.Name; got != "L1D" {
		t.Errorf("DeepestLevel without L2 = %s, want L1D", got)
	}
	cfg.SplitL1 = false
	cfg.L1 = cfg.L1D
	cfg.L1.Cache.Name = "L1"
	if got := cfg.DeepestLevel().Cache.Name; got != "L1" {
		t.Errorf("unified DeepestLevel = %s, want L1", got)
	}
}

func TestWriteCyclesDefault(t *testing.T) {
	lc := LevelConfig{CycleNS: 30}
	if lc.WriteNS() != 60 {
		t.Errorf("default WriteNS = %d, want 60 (2 cycles)", lc.WriteNS())
	}
	lc.WriteCycles = 3
	if lc.WriteNS() != 90 {
		t.Errorf("WriteNS = %d, want 90", lc.WriteNS())
	}
}

// TestNominalL2MissPenalty verifies the paper's numbers end to end: a read
// that misses in L1 and in L2 stalls the CPU for one L2 tag-check cycle
// plus the 270 ns nominal memory fetch; a subsequent read of a different L1
// block within the same L2 block pays exactly the nominal 3-CPU-cycle (one
// L2 cycle) L1 miss penalty; a re-read of the same L1 block is free.
func TestNominalL2MissPenalty(t *testing.T) {
	h := MustNew(baseConfig())

	// Cold read: issued at end of cycle, t=10.
	done := h.Access(trace.Ref{Kind: trace.IFetch, Addr: 0x10000}, 10)
	// L2 tag check 30 ns; memory: address beat 30, read 180, two data
	// beats 60: done = 10 + 30 + 270 = 310.
	if done != 310 {
		t.Fatalf("cold miss done at %d, want 310", done)
	}

	// Same L1 block: hit, no stall.
	if got := h.Access(trace.Ref{Kind: trace.IFetch, Addr: 0x10004}, 320); got != 320 {
		t.Errorf("L1 hit done at %d, want 320", got)
	}

	// Other half of the same 32 B L2 block: L1 miss, L2 hit: 30 ns = 3 CPU
	// cycles.
	if got := h.Access(trace.Ref{Kind: trace.IFetch, Addr: 0x10010}, 330); got != 360 {
		t.Errorf("L1 miss / L2 hit done at %d, want 360", got)
	}

	s := h.Stats()
	if s.L1I.Cache.ReadRefs != 3 || s.L1I.Cache.ReadMisses != 2 {
		t.Errorf("L1I stats = %+v", s.L1I.Cache)
	}
	if len(s.Down) != 1 || s.Down[0].Cache.ReadRefs != 2 || s.Down[0].Cache.ReadMisses != 1 {
		t.Errorf("L2 stats = %+v", s.Down[0].Cache)
	}
	if s.MemReads != 1 {
		t.Errorf("mem reads = %d, want 1", s.MemReads)
	}
}

func TestStoreHitCost(t *testing.T) {
	h := MustNew(baseConfig())
	// Warm the block via a load.
	h.Access(trace.Ref{Kind: trace.Load, Addr: 0x2000}, 10)
	// A store hit takes 2 cycles: one extra beyond the base cycle.
	done := h.Access(trace.Ref{Kind: trace.Store, Addr: 0x2000}, 1000)
	if done != 1010 {
		t.Errorf("store hit done at %d, want 1010", done)
	}
	s := h.Stats()
	if s.L1D.Cache.WriteRefs != 1 || s.L1D.Cache.WriteMisses != 0 {
		t.Errorf("L1D stats = %+v", s.L1D.Cache)
	}
}

// TestHitExtrasFollowResetFor pins what a first-level hit costs beyond
// the base cycle when the L1D cycles slower than the CPU, and that
// ResetFor recomputes it for new L1 timing.
func TestHitExtrasFollowResetFor(t *testing.T) {
	hitCosts := func(h *Hierarchy) (read, store int64) {
		h.Access(trace.Ref{Kind: trace.Load, Addr: 0x2000}, 10)
		return h.Access(trace.Ref{Kind: trace.Load, Addr: 0x2000}, 1000) - 1000,
			h.Access(trace.Ref{Kind: trace.Store, Addr: 0x2000}, 2000) - 2000
	}
	slow := baseConfig()
	slow.L1D.CycleNS = 20
	h := MustNew(slow)
	// A 20 ns L1D: a read hit takes one more 10 ns CPU cycle, a store hit
	// its two 20 ns write cycles less the base cycle.
	if read, store := hitCosts(h); read != 10 || store != 30 {
		t.Errorf("slow L1D hit extras = %d, %d; want 10, 30", read, store)
	}
	if err := h.ResetFor(baseConfig()); err != nil {
		t.Fatalf("ResetFor refused an L1 timing change: %v", err)
	}
	if read, store := hitCosts(h); read != 0 || store != 10 {
		t.Errorf("hit extras after ResetFor = %d, %d; want 0, 10", read, store)
	}
}

func TestStoreMissAllocatesQuietly(t *testing.T) {
	h := MustNew(baseConfig())
	done := h.Access(trace.Ref{Kind: trace.Store, Addr: 0x3000}, 10)
	// Fetch as a cold L2 miss (300 ns) plus the extra write cycle.
	if done != 320 {
		t.Errorf("store miss done at %d, want 320", done)
	}
	s := h.Stats()
	if s.L1D.Cache.WriteMisses != 1 {
		t.Errorf("L1D write misses = %d, want 1", s.L1D.Cache.WriteMisses)
	}
	// The L2 saw the fill as store traffic, not as a read.
	if s.Down[0].Cache.ReadRefs != 0 {
		t.Errorf("L2 read refs = %d, want 0 (store fill must be quiet)", s.Down[0].Cache.ReadRefs)
	}
	if s.Down[0].StoreFills != 1 || s.Down[0].StoreFillMisses != 1 {
		t.Errorf("L2 store fills = %d/%d, want 1/1", s.Down[0].StoreFills, s.Down[0].StoreFillMisses)
	}
}

// TestDirtyVictimWritebackDrains pushes a dirty L1 victim and checks that
// it drains into the L2 in the background.
func TestDirtyVictimWritebackDrains(t *testing.T) {
	h := MustNew(baseConfig())
	now := int64(10)
	// Dirty block A in L1D.
	now = h.Access(trace.Ref{Kind: trace.Store, Addr: 0x0000}, now) + 10
	// Load B mapping to the same L1D set (L1D is 2 KB direct-mapped):
	// evicts dirty A into the write buffer toward L2.
	now = h.Access(trace.Ref{Kind: trace.Load, Addr: 0x0800}, now) + 10
	if s := h.Stats(); s.Down[0].InBuf.Pushes != 1 {
		t.Fatalf("wb pushes = %d, want 1", s.Down[0].InBuf.Pushes)
	}
	// Give the buffer idle time, then touch the L2 so it catches up.
	now += 100000
	h.Access(trace.Ref{Kind: trace.Load, Addr: 0x20000}, now)
	s := h.Stats()
	if s.Down[0].InBuf.Drains != 1 {
		t.Errorf("wb drains = %d, want 1", s.Down[0].InBuf.Drains)
	}
	if s.Down[0].Cache.WriteRefs != 1 {
		t.Errorf("L2 write refs = %d, want 1 (the drained victim)", s.Down[0].Cache.WriteRefs)
	}
}

// TestReadMatchingBufferedVictimFlushes re-reads a block whose dirty victim
// is still sitting in the write buffer: the buffer must flush through the
// match before the read proceeds.
func TestReadMatchingBufferedVictimFlushes(t *testing.T) {
	h := MustNew(baseConfig())
	now := int64(10)
	now = h.Access(trace.Ref{Kind: trace.Store, Addr: 0x0000}, now) + 10
	now = h.Access(trace.Ref{Kind: trace.Load, Addr: 0x0800}, now)
	// Re-read A at the very instant B's fill completes, before the L2 has
	// an idle cycle to drain the buffer: A missed out of L1 and its dirty
	// copy is still in the buffer, so the read must flush it.
	h.Access(trace.Ref{Kind: trace.Load, Addr: 0x0000}, now)
	s := h.Stats()
	if s.Down[0].InBuf.MatchHits != 1 {
		t.Errorf("wb match hits = %d, want 1", s.Down[0].InBuf.MatchHits)
	}
}

func TestUnifiedSingleLevel(t *testing.T) {
	cfg := Config{
		CPUCycleNS: 10,
		L1: LevelConfig{
			Cache: cache.Config{
				Name: "solo", SizeBytes: 64 * 1024, BlockBytes: 32, Assoc: 1,
				Repl: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
			},
			CycleNS: 30,
		},
		Memory: mainmem.Base(),
	}
	h := MustNew(cfg)
	// Cold miss: extra = (30-10) hit-extra + memory 270 (32 B block, one
	// address beat + 180 + 2 beats at the 30 ns backplane).
	done := h.Access(trace.Ref{Kind: trace.Load, Addr: 0x4000}, 10)
	if done != 10+20+270 {
		t.Errorf("solo cold miss done at %d, want 300", done)
	}
	// Hit in the slow solo cache still stalls 2 CPU cycles.
	if got := h.Access(trace.Ref{Kind: trace.Load, Addr: 0x4004}, 400); got != 420 {
		t.Errorf("solo hit done at %d, want 420", got)
	}
	s := h.Stats()
	if s.L1 == nil || s.L1.Cache.ReadRefs != 2 || s.L1.Cache.ReadMisses != 1 {
		t.Errorf("solo stats = %+v", s.L1)
	}
	if s.FirstLevelReads() != 2 || s.FirstLevelReadMisses() != 1 {
		t.Errorf("first level reads/misses = %d/%d", s.FirstLevelReads(), s.FirstLevelReadMisses())
	}
}

func TestSplitFirstLevelRouting(t *testing.T) {
	h := MustNew(baseConfig())
	h.Access(trace.Ref{Kind: trace.IFetch, Addr: 0x1000}, 10)
	h.Access(trace.Ref{Kind: trace.Load, Addr: 0x1000}, 1000)
	s := h.Stats()
	if s.L1I.Cache.ReadRefs != 1 || s.L1D.Cache.ReadRefs != 1 {
		t.Errorf("routing wrong: L1I %d, L1D %d", s.L1I.Cache.ReadRefs, s.L1D.Cache.ReadRefs)
	}
	if s.FirstLevelReads() != 2 {
		t.Errorf("combined reads = %d, want 2", s.FirstLevelReads())
	}
	if got := s.L1GlobalReadMissRatio(); got != 1.0 {
		t.Errorf("L1 global miss ratio = %v, want 1.0 (both cold)", got)
	}
}

func TestRecordingToggle(t *testing.T) {
	h := MustNew(baseConfig())
	h.SetRecording(false)
	h.Access(trace.Ref{Kind: trace.Store, Addr: 0x5000}, 10)
	s := h.Stats()
	if s.L1D.Cache.WriteRefs != 0 || s.Down[0].StoreFills != 0 {
		t.Errorf("stats recorded while disabled: %+v, fills %d", s.L1D.Cache, s.Down[0].StoreFills)
	}
	h.SetRecording(true)
	h.Access(trace.Ref{Kind: trace.Load, Addr: 0x5000}, 1000)
	if s := h.Stats(); s.L1D.Cache.ReadRefs != 1 {
		t.Error("stats not recorded after re-enable")
	}
}

func TestLevelStatsRatios(t *testing.T) {
	ls := LevelStats{Cache: cache.Stats{ReadRefs: 100, ReadMisses: 20}}
	if got := ls.LocalReadMissRatio(); got != 0.2 {
		t.Errorf("local = %v", got)
	}
	if got := ls.GlobalReadMissRatio(1000); got != 0.02 {
		t.Errorf("global = %v", got)
	}
	if got := ls.GlobalReadMissRatio(0); got != 0 {
		t.Errorf("global with 0 reads = %v", got)
	}
}

// Property: time never goes backwards — Access always returns a time >= now
// — and repeated access to an address is never slower than its first access.
func TestQuickTimeMonotone(t *testing.T) {
	f := func(addrs []uint32, kinds []uint8) bool {
		h := MustNew(baseConfig())
		n := len(addrs)
		if len(kinds) < n {
			n = len(kinds)
		}
		now := int64(0)
		for i := 0; i < n; i++ {
			now += 10
			r := trace.Ref{Kind: trace.Kind(kinds[i] % 3), Addr: uint64(addrs[i])}
			done := h.Access(r, now)
			if done < now {
				return false
			}
			now = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the L2's incoming read stream equals the L1 read misses, i.e.
// the L2 local read ratio denominator is the L1 miss count (the paper's
// definition of the local miss ratio).
func TestQuickL2SeesExactlyL1ReadMisses(t *testing.T) {
	f := func(addrs []uint32) bool {
		h := MustNew(baseConfig())
		now := int64(0)
		for _, a := range addrs {
			now += 10
			now = h.Access(trace.Ref{Kind: trace.Load, Addr: uint64(a)}, now)
		}
		s := h.Stats()
		return s.Down[0].Cache.ReadRefs == s.L1D.Cache.ReadMisses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
