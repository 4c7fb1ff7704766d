package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func subConfig() Config {
	return Config{
		Name:       "sub",
		SizeBytes:  512,
		BlockBytes: 64,
		FetchBytes: 16, // 4 sub-blocks per block
		Assoc:      2,
		Repl:       LRU,
		Write:      WriteBack,
		Alloc:      WriteAllocate,
	}
}

func TestSubBlockConfig(t *testing.T) {
	cfg := subConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid sub-block config rejected: %v", err)
	}
	if cfg.SubBlocks() != 4 || cfg.EffectiveFetchBytes() != 16 {
		t.Errorf("SubBlocks=%d Fetch=%d", cfg.SubBlocks(), cfg.EffectiveFetchBytes())
	}
	bad := cfg
	bad.FetchBytes = 24
	if err := bad.Validate(); err == nil {
		t.Error("non-pow2 fetch accepted")
	}
	bad = cfg
	bad.FetchBytes = 128
	if err := bad.Validate(); err == nil {
		t.Error("fetch > block accepted")
	}
	bad = cfg
	bad.BlockBytes = 2048
	bad.SizeBytes = 4096
	bad.FetchBytes = 16 // 128 sub-blocks
	if err := bad.Validate(); err == nil {
		t.Error(">64 sub-blocks accepted")
	}
	// Fetch == block or zero disables sub-blocking.
	whole := cfg
	whole.FetchBytes = 64
	if whole.SubBlocks() != 1 {
		t.Error("fetch==block should disable sub-blocking")
	}
	zero := cfg
	zero.FetchBytes = 0
	if zero.SubBlocks() != 1 || zero.EffectiveFetchBytes() != 64 {
		t.Error("zero fetch should disable sub-blocking")
	}
}

func TestSubBlockMissOnUnfetchedPart(t *testing.T) {
	c := MustNew(subConfig())
	// Miss on sub-block 0 of block 0: partial fill.
	res := c.Access(0x00, false)
	if res.Hit || !res.Fill || !res.Partial {
		t.Fatalf("first access: %+v", res)
	}
	// Same sub-block: hit.
	if res = c.Access(0x0c, false); !res.Hit {
		t.Fatalf("same sub-block: %+v", res)
	}
	// Different sub-block of the same resident block: a (partial) miss.
	res = c.Access(0x30, false)
	if res.Hit || !res.Fill || !res.Partial {
		t.Fatalf("unfetched sub-block: %+v", res)
	}
	if res.Writeback {
		t.Error("sub-block fill must not evict")
	}
	// Now it hits.
	if res = c.Access(0x30, false); !res.Hit {
		t.Fatalf("fetched sub-block: %+v", res)
	}
	s := c.Stats()
	if s.ReadMisses != 2 || s.PartialMisses != 1 {
		t.Errorf("stats = %+v, want 2 misses of which 1 partial", s)
	}
	// One block tag resident, not four.
	if c.Occupancy() != 1 {
		t.Errorf("occupancy = %d, want 1", c.Occupancy())
	}
}

func TestSubBlockWriteDirty(t *testing.T) {
	c := MustNew(subConfig())
	c.Access(0x00, true) // write miss: partial fill + dirty
	// Evict by filling the set: 512B/64B = 8 blocks, 2-way -> 4 sets;
	// set stride = 64*4 = 256.
	c.Access(0x100, false)
	res := c.Access(0x200, false) // third block in set 0: evicts LRU (0x00)
	if !res.Writeback || res.VictimAddr != 0 {
		t.Fatalf("expected writeback of dirty block 0: %+v", res)
	}
}

func TestSubBlockNoWriteAllocate(t *testing.T) {
	cfg := subConfig()
	cfg.Alloc = NoWriteAllocate
	c := MustNew(cfg)
	c.Access(0x00, false) // fill sub-block 0
	// Write to unfetched sub-block 1: no allocation, write down.
	res := c.Access(0x10, true)
	if res.Fill || !res.WriteDown {
		t.Fatalf("no-alloc sub-block write: %+v", res)
	}
	// Sub-block 1 still missing.
	if res = c.Access(0x10, false); res.Hit {
		t.Error("sub-block allocated despite no-write-allocate")
	}
}

// Property: a sub-blocked cache never has fewer misses than the same cache
// without sub-blocking (partial fills can only lose spatial locality), and
// never more than a cache whose blocks are fetch-sized (the tag reach can
// only help or tie... it ties on misses but differs in tag conflicts; we
// assert only the first, universally true, bound).
func TestQuickSubBlockMissBound(t *testing.T) {
	f := func(seed int64) bool {
		sub := MustNew(subConfig())
		whole := MustNew(Config{
			Name: "w", SizeBytes: 512, BlockBytes: 64, Assoc: 2,
			Repl: LRU, Write: WriteBack, Alloc: WriteAllocate,
		})
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 3000; i++ {
			a := uint64(rng.Intn(4096))
			sub.Access(a, false)
			whole.Access(a, false)
		}
		return sub.Stats().ReadMisses >= whole.Stats().ReadMisses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: occupancy counts block tags, and stays within capacity even
// with sub-blocking.
func TestQuickSubBlockOccupancy(t *testing.T) {
	f := func(seed int64) bool {
		c := MustNew(subConfig())
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			c.Access(uint64(rng.Intn(8192)), rng.Intn(3) == 0)
			if c.Occupancy() > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
