package memsys

import (
	"sync"
	"testing"

	"mlcache/internal/cache"
	"mlcache/internal/mainmem"
	"mlcache/internal/trace"
)

func poolTestConfig(l2Size int64, l2Cycle int64) Config {
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
				Name: "L2", SizeBytes: l2Size, BlockBytes: 32, Assoc: 1,
				Repl: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
			},
			CycleNS: l2Cycle,
		}},
		Memory: mainmem.Base(),
	}
}

// driveRefs pushes a short deterministic reference pattern through h and
// returns the final time, a cheap fingerprint of simulation state.
func driveRefs(t *testing.T, h *Hierarchy) int64 {
	t.Helper()
	now := int64(0)
	for i := 0; i < 2000; i++ {
		addr := uint64(i*64) % (1 << 14)
		kind := trace.Load
		if i%3 == 0 {
			kind = trace.Store
		}
		now += 10
		next := h.Access(trace.Ref{Addr: addr, Kind: kind}, now)
		if next > now {
			now = next
		}
	}
	return now
}

// TestPoolReuseBitIdentical: a hierarchy drawn from the pool after a prior
// simulation must behave exactly like a fresh one.
func TestPoolReuseBitIdentical(t *testing.T) {
	cfg := poolTestConfig(64*1024, 30)

	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := driveRefs(t, fresh)

	p := NewPool(2, 0)
	h1, err := p.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveRefs(t, h1) // dirty it
	p.Put(h1)

	// Same geometry, different timing: must still be a pool hit, and the
	// rerun must match the fresh hierarchy exactly.
	h2, err := p.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h2 != h1 {
		t.Fatalf("pool did not reuse the returned hierarchy")
	}
	if got := driveRefs(t, h2); got != want {
		t.Errorf("pooled rerun final time %d, fresh %d", got, want)
	}

	st := p.Stats()
	if st.Gets != 2 || st.Hits != 1 || st.Puts != 1 {
		t.Errorf("stats = %+v, want gets=2 hits=1 puts=1", st)
	}
}

// TestPoolGeometryMiss: different tag-array geometry must not share.
func TestPoolGeometryMiss(t *testing.T) {
	p := NewPool(2, 0)
	h, err := p.Get(poolTestConfig(64*1024, 30))
	if err != nil {
		t.Fatal(err)
	}
	p.Put(h)
	h2, err := p.Get(poolTestConfig(128*1024, 30))
	if err != nil {
		t.Fatal(err)
	}
	if h2 == h {
		t.Fatal("pool shared a hierarchy across different L2 sizes")
	}
	// Timing-only change is the same geometry.
	h3, err := p.Get(poolTestConfig(64*1024, 50))
	if err != nil {
		t.Fatal(err)
	}
	if h3 != h {
		t.Error("pool missed a timing-only geometry match")
	}
}

// TestPoolPerKeyCap: the per-geometry free list is bounded.
func TestPoolPerKeyCap(t *testing.T) {
	cfg := poolTestConfig(64*1024, 30)
	p := NewPool(1, 0)
	var hs []*Hierarchy
	for i := 0; i < 3; i++ {
		h, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	for _, h := range hs {
		p.Put(h)
	}
	st := p.Stats()
	if st.Size != 1 || st.Drops != 2 {
		t.Errorf("stats = %+v, want size=1 drops=2", st)
	}
}

// TestPoolConcurrent exercises the pool under the race detector.
func TestPoolConcurrent(t *testing.T) {
	cfg := poolTestConfig(16*1024, 20)
	p := NewPool(4, 0)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				h, err := p.Get(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				p.Put(h)
			}
		}()
	}
	wg.Wait()
	if st := p.Stats(); st.Gets != 80 || st.Hits == 0 {
		t.Errorf("stats = %+v, want 80 gets with some hits", st)
	}
}

// TestPoolIdleBytesBound: past its byte bound the pool drops the least
// recently returned idle hierarchies, whatever their geometry, and a
// hierarchy larger alone than the bound is dropped without disturbing
// the others.
func TestPoolIdleBytesBound(t *testing.T) {
	cfgA, cfgB, cfgC := poolTestConfig(64*1024, 30), poolTestConfig(128*1024, 30), poolTestConfig(32*1024, 30)
	sizeA, sizeB, sizeC := cfgA.TagBytes(), cfgB.TagBytes(), cfgC.TagBytes()
	// Two 2 KiB L1s of 128 lines and a 64 KiB L2 of 2048, each one page:
	// 32 bytes a line and a 24-byte directory each.
	if want := int64(2*(128*32+24) + 2048*32 + 24); sizeA != want {
		t.Fatalf("precondition: TagBytes of a 64 KiB L2 machine = %d, want %d", sizeA, want)
	}
	p := NewPool(4, sizeA+sizeB)
	get := func(cfg Config) *Hierarchy {
		h, err := p.Get(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	a, b, c := get(cfgA), get(cfgB), get(cfgC)
	p.Put(a)
	p.Put(b)
	if st := p.Stats(); st.IdleBytes != sizeA+sizeB || st.Drops != 0 {
		t.Fatalf("at the bound: %+v, want %d idle bytes and no drops", st, sizeA+sizeB)
	}
	// Returned again, a becomes the most recently returned; c then pushes
	// the pool past its bound, and b, now the least recent, goes.
	if get(cfgA) != a {
		t.Fatal("pool did not reuse a")
	}
	p.Put(a)
	p.Put(c)
	if st := p.Stats(); st.IdleBytes != sizeA+sizeC || st.Size != 2 || st.Drops != 1 {
		t.Fatalf("past the bound: %+v, want a and c idle (%d bytes), 1 drop", st, sizeA+sizeC)
	}
	if get(cfgB) == b || get(cfgA) != a || get(cfgC) != c {
		t.Fatal("pool kept b or dropped a or c")
	}
	p.Put(a)
	p.Put(get(poolTestConfig(512*1024, 30)))
	if st := p.Stats(); st.IdleBytes != sizeA || st.Size != 1 || st.Drops != 2 {
		t.Errorf("after a hierarchy larger than the bound: %+v, want only a idle, 2 drops", st)
	}
}
