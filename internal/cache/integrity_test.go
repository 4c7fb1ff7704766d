package cache

import (
	"errors"
	"testing"
)

func integrityConfig(w WritePolicy) Config {
	return Config{
		Name: "T", SizeBytes: 1024, BlockBytes: 16, Assoc: 2,
		Repl: LRU, Write: w, Alloc: WriteAllocate,
	}
}

// exercise drives a deterministic mixed read/write pattern through c.
func exercise(t *testing.T, c *Cache) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		addr := uint64((i * 61) % 4096)
		c.Access(addr, i%3 == 0)
		if i%97 == 0 {
			c.Invalidate(addr)
		}
	}
}

func TestCheckIntegrityCleanAfterUse(t *testing.T) {
	for _, w := range []WritePolicy{WriteBack, WriteThrough} {
		c := MustNew(integrityConfig(w))
		exercise(t, c)
		if err := c.CheckIntegrity(); err != nil {
			t.Errorf("%v cache: %v", w, err)
		}
	}
}

func TestCheckIntegrityCleanAfterFlush(t *testing.T) {
	c := MustNew(integrityConfig(WriteBack))
	exercise(t, c)
	c.Flush()
	if err := c.CheckIntegrity(); err != nil {
		t.Error(err)
	}
	if c.DirtyCount() != 0 {
		t.Errorf("dirty after flush: %d", c.DirtyCount())
	}
}

func TestCheckIntegritySubBlocked(t *testing.T) {
	cfg := integrityConfig(WriteBack)
	cfg.FetchBytes = 4
	c := MustNew(cfg)
	exercise(t, c)
	if err := c.CheckIntegrity(); err != nil {
		t.Error(err)
	}
}

// wantViolation asserts that CheckIntegrity reports the given property.
func wantViolation(t *testing.T, c *Cache, property string) {
	t.Helper()
	err := c.CheckIntegrity()
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("CheckIntegrity = %v, want *IntegrityError(%s)", err, property)
	}
	if ie.Property != property {
		t.Fatalf("property = %q, want %q (detail: %s)", ie.Property, property, ie.Detail)
	}
}

func TestCheckIntegrityDetectsDuplicateTag(t *testing.T) {
	c := MustNew(integrityConfig(WriteBack))
	c.Access(0x0000, false)
	c.Access(0x1000, false) // same set, different tag
	c.set(0)[1].tag = c.set(0)[0].tag
	wantViolation(t, c, "duplicate-tag")
}

func TestCheckIntegrityDetectsLRUCorruption(t *testing.T) {
	c := MustNew(integrityConfig(WriteBack))
	c.Access(0x0000, false)
	c.set(0)[0].stamp = c.clock + 100
	wantViolation(t, c, "lru-order")

	c = MustNew(integrityConfig(WriteBack))
	c.Access(0x0000, false)
	c.Access(0x1000, false)
	c.set(0)[1].stamp = c.set(0)[0].stamp
	wantViolation(t, c, "lru-order")
}

func TestCheckIntegrityDetectsDirtyLeak(t *testing.T) {
	c := MustNew(integrityConfig(WriteBack))
	c.Access(0x0000, true)
	c.set(0)[0].dirty = false // lose the pending writeback
	wantViolation(t, c, "dirty-accounting")
}

func TestCheckIntegrityDetectsWriteThroughDirty(t *testing.T) {
	c := MustNew(integrityConfig(WriteThrough))
	c.Access(0x0000, true)
	c.set(0)[0].dirty = true
	wantViolation(t, c, "write-through-dirty")
}

func TestCheckIntegrityDetectsMaskOverflow(t *testing.T) {
	cfg := integrityConfig(WriteBack)
	cfg.FetchBytes = 4 // 4 sub-blocks
	c := MustNew(cfg)
	c.Access(0x0000, false)
	c.set(0)[0].validMask = 1 << 6
	wantViolation(t, c, "subblock-mask")
}
