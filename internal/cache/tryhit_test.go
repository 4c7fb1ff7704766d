package cache

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomConfig draws a valid small cache configuration covering every
// associativity shape, sub-blocking, and each write, allocation and
// replacement policy.
func randomConfig(rng *rand.Rand) Config {
	for {
		block := []int{8, 16, 32}[rng.Intn(3)]
		cfg := Config{
			Name:       "T",
			SizeBytes:  []int64{64, 128, 256, 512}[rng.Intn(4)],
			BlockBytes: block,
			Assoc:      []int{1, 2, 4, 0}[rng.Intn(4)],
			Repl:       []Replacement{LRU, FIFO, Random}[rng.Intn(3)],
			Write:      []WritePolicy{WriteBack, WriteThrough}[rng.Intn(2)],
			Alloc:      []AllocPolicy{WriteAllocate, NoWriteAllocate}[rng.Intn(2)],
			Seed:       rng.Int63(),
		}
		if rng.Intn(2) == 0 {
			cfg.FetchBytes = block >> (1 + rng.Intn(2))
		}
		if cfg.Validate() == nil {
			return cfg
		}
	}
}

// TestTryHitMatchesAccess drives twin caches with the same random
// reference sequence: one presents each reference to TryHit and falls back
// to Access on false, the other uses Access alone. The twins must stay
// deep-equal after every step — lines, clock, statistics, dirty
// accounting and replacement PRNG — and a false TryHit must leave its
// cache exactly as it found it.
func TestTryHitMatchesAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var hits, falls int
	for trial := 0; trial < 200; trial++ {
		cfg := randomConfig(rng)
		fast, ref := MustNew(cfg), MustNew(cfg)
		span := uint64(cfg.SizeBytes) * uint64(1+rng.Intn(4))
		for step := 0; step < 400; step++ {
			if rng.Intn(50) == 0 {
				on := rng.Intn(2) == 0
				fast.SetRecording(on)
				ref.SetRecording(on)
			}
			addr := uint64(rng.Int63n(int64(span)))
			isWrite := rng.Intn(3) == 0
			if fast.TryHit(addr, isWrite) {
				hits++
				res := ref.Access(addr, isWrite)
				if res != (Result{Hit: true}) {
					t.Fatalf("%+v step %d: TryHit(%#x, %v) = true, Access = %+v", cfg, step, addr, isWrite, res)
				}
			} else {
				falls++
				if !reflect.DeepEqual(fast, ref) {
					t.Fatalf("%+v step %d: TryHit(%#x, %v) = false changed the cache", cfg, step, addr, isWrite)
				}
				if got, want := fast.Access(addr, isWrite), ref.Access(addr, isWrite); got != want {
					t.Fatalf("%+v step %d: Access(%#x, %v) = %+v, twin %+v", cfg, step, addr, isWrite, got, want)
				}
			}
			if !reflect.DeepEqual(fast, ref) {
				t.Fatalf("%+v step %d: twins diverged after (%#x, %v)", cfg, step, addr, isWrite)
			}
		}
		if cfg.Repl == Random {
			for i := 0; i < 8; i++ {
				if a, b := fast.rng.Int63(), ref.rng.Int63(); a != b {
					t.Fatalf("%+v: replacement draws diverged: %d vs %d", cfg, a, b)
				}
			}
		}
	}
	if hits == 0 || falls == 0 {
		t.Fatalf("sequence exercised %d fast hits and %d fallbacks; want both", hits, falls)
	}
}

// TestTryHitDeclines pins the outcomes TryHit must hand back to Access.
func TestTryHitDeclines(t *testing.T) {
	cfg := smallConfig()
	c := MustNew(cfg)
	if c.TryHit(0x40, false) {
		t.Fatal("TryHit hit in an empty cache")
	}
	c.Access(0x40, false)
	if !c.TryHit(0x44, false) || !c.TryHit(0x48, true) {
		t.Fatal("TryHit missed a resident block")
	}

	cfg.Write = WriteThrough
	wt := MustNew(cfg)
	wt.Access(0x40, false)
	if wt.TryHit(0x40, true) {
		t.Fatal("TryHit took a write-through store, which must go downstream")
	}

	sub := MustNew(subConfig())
	sub.Access(0, false)
	if sub.TryHit(uint64(subConfig().FetchBytes), false) {
		t.Fatal("TryHit took a sub-block miss")
	}
}
