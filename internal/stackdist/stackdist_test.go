package stackdist

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mlcache/internal/cache"
	"mlcache/internal/synth"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("block 0 accepted")
	}
	if _, err := New(24); err == nil {
		t.Error("non-pow2 block accepted")
	}
	p, err := New(16)
	if err != nil || p == nil {
		t.Fatalf("New(16) = %v, %v", p, err)
	}
}

func TestImmediateRereference(t *testing.T) {
	p := MustNew(16)
	p.Access(0x100)
	p.Access(0x104) // same block: distance 1
	if p.Cold() != 1 || p.Total() != 2 {
		t.Errorf("cold=%d total=%d", p.Cold(), p.Total())
	}
	// Capacity 1 holds it: only the cold miss.
	if got := p.MissesAtCapacity(1); got != 1 {
		t.Errorf("misses at capacity 1 = %d, want 1", got)
	}
	// Capacity 0 misses everything.
	if got := p.MissesAtCapacity(0); got != 2 {
		t.Errorf("misses at capacity 0 = %d, want 2", got)
	}
}

func TestKnownDistances(t *testing.T) {
	p := MustNew(16)
	// Blocks A B C A: A's re-reference has distance 3.
	for _, b := range []uint64{0, 1, 2, 0} {
		p.Access(b * 16)
	}
	if got := p.MissesAtCapacity(2); got != 4 {
		t.Errorf("capacity 2 misses = %d, want 4 (3 cold + distance-3 re-ref)", got)
	}
	if got := p.MissesAtCapacity(3); got != 3 {
		t.Errorf("capacity 3 misses = %d, want 3 (re-ref hits)", got)
	}
}

func TestDistinctBlocks(t *testing.T) {
	p := MustNew(16)
	for i := 0; i < 100; i++ {
		p.Access(uint64(i%7) * 16)
	}
	if got := p.DistinctBlocks(); got != 7 {
		t.Errorf("distinct = %d, want 7", got)
	}
	if p.Cold() != 7 {
		t.Errorf("cold = %d, want 7", p.Cold())
	}
}

// TestMatchesDirectSimulation: the profiler's predicted miss counts equal
// a direct fully-associative LRU simulation at several capacities.
func TestMatchesDirectSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const blocks = 400
	var addrs []uint64
	for i := 0; i < 20000; i++ {
		// Skewed reuse so distances span the capacities.
		b := uint64(rng.Intn(blocks))
		if rng.Intn(2) == 0 {
			b = uint64(rng.Intn(blocks / 10))
		}
		addrs = append(addrs, b*16+uint64(rng.Intn(16)))
	}
	p := MustNew(16)
	for _, a := range addrs {
		p.Access(a)
	}
	for _, capBlocks := range []int64{4, 16, 64, 256} {
		c := cache.MustNew(cache.Config{
			Name: "fa", SizeBytes: capBlocks * 16, BlockBytes: 16, Assoc: 0,
			Repl: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
		})
		for _, a := range addrs {
			c.Access(a, false)
		}
		want := c.Stats().ReadMisses
		got := p.MissesAtCapacity(capBlocks)
		if got != want {
			t.Errorf("capacity %d: profiler %d, simulation %d", capBlocks, got, want)
		}
	}
}

// TestCompaction: long traces with many distinct blocks force tree
// compaction; results must still match direct simulation.
func TestCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := MustNew(16)
	c := cache.MustNew(cache.Config{
		Name: "fa", SizeBytes: 128 * 16, BlockBytes: 16, Assoc: 0,
		Repl: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
	})
	// >64K accesses with ~100K distinct blocks: multiple compactions.
	for i := 0; i < 300_000; i++ {
		var b uint64
		if rng.Intn(3) == 0 {
			b = uint64(rng.Intn(100))
		} else {
			b = uint64(rng.Intn(100_000)) + 100
		}
		a := b * 16
		p.Access(a)
		c.Access(a, false)
	}
	if got, want := p.MissesAtCapacity(128), c.Stats().ReadMisses; got != want {
		t.Errorf("after compaction: profiler %d, simulation %d", got, want)
	}
}

func TestMissRatioMonotone(t *testing.T) {
	p := MustNew(16)
	s := synth.PaperStream(1, 100_000)
	for {
		r, err := s.Next()
		if err != nil {
			break
		}
		p.Access(r.Addr)
	}
	sizes, ratios := p.Curve(16, 1024, 1<<20)
	if len(sizes) != 11 {
		t.Fatalf("curve points = %d", len(sizes))
	}
	for i := 1; i < len(ratios); i++ {
		if ratios[i] > ratios[i-1] {
			t.Errorf("miss ratio rose with capacity: %v", ratios)
		}
	}
	if ratios[0] <= 0 || ratios[0] > 1 {
		t.Errorf("ratio out of range: %v", ratios[0])
	}
}

// TestCurveMatchesSimulationOnSynth: on the real synthetic workload, the
// one-pass profile exactly reproduces direct fully-associative LRU
// simulations at two cache sizes — one pass replacing N simulations.
func TestCurveMatchesSimulationOnSynth(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	p := MustNew(16)
	caches := map[int64]*cache.Cache{}
	for _, kb := range []int64{8, 64} {
		caches[kb] = cache.MustNew(cache.Config{
			Name: "fa", SizeBytes: kb * 1024, BlockBytes: 16, Assoc: 0,
			Repl: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
		})
	}
	s := synth.PaperStream(1, 400_000)
	for {
		r, err := s.Next()
		if err != nil {
			break
		}
		if !r.Kind.IsRead() {
			continue
		}
		p.Access(r.Addr)
		for _, c := range caches {
			c.Access(r.Addr, false)
		}
	}
	for kb, c := range caches {
		want := c.Stats().ReadMisses
		got := p.MissesAtCapacity(kb * 1024 / 16)
		if got != want {
			t.Errorf("%dKB: profiler %d, simulation %d", kb, got, want)
		}
	}
}

func TestDeepDistances(t *testing.T) {
	p := MustNew(16)
	// Touch 100K distinct blocks, then re-touch the first: distance 100K,
	// beyond the exact range.
	for i := 0; i < 100_000; i++ {
		p.Access(uint64(i) * 16)
	}
	p.Access(0)
	// A 64Ki-block cache misses it; a 128Ki-block cache holds it.
	if got := p.MissesAtCapacity(1 << 16); got != 100_001 {
		t.Errorf("misses at 64Ki = %d, want 100001", got)
	}
	if got := p.MissesAtCapacity(1 << 17); got != 100_000 {
		t.Errorf("misses at 128Ki = %d, want 100000 (cold only)", got)
	}
}

// Property: profiler equals direct simulation for arbitrary short traces
// and capacities.
func TestQuickMatchesSimulation(t *testing.T) {
	f := func(raw []uint16, capSel uint8) bool {
		if len(raw) == 0 {
			return true
		}
		capacity := int64(capSel%60) + 1 // arbitrary, not power-of-two
		p := MustNew(16)
		lru := naiveLRU{capacity: int(capacity)}
		var misses int64
		for _, v := range raw {
			a := uint64(v%512) * 16
			p.Access(a)
			if !lru.access(a >> 4) {
				misses++
			}
		}
		return p.MissesAtCapacity(capacity) == misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// naiveLRU is a trivially correct fully-associative LRU of arbitrary
// capacity (the cache package requires power-of-two sizes).
type naiveLRU struct {
	capacity int
	order    []uint64 // MRU last
}

func (l *naiveLRU) access(block uint64) bool {
	for i := len(l.order) - 1; i >= 0; i-- {
		if l.order[i] == block {
			copy(l.order[i:], l.order[i+1:])
			l.order[len(l.order)-1] = block
			return true
		}
	}
	if len(l.order) == l.capacity {
		copy(l.order, l.order[1:])
		l.order[len(l.order)-1] = block
	} else {
		l.order = append(l.order, block)
	}
	return false
}

// TestCompactionBeyond64K drives the profiler through >64K distinct blocks
// — forcing both time-slot compaction and the deep log2 buckets — and
// checks miss counts against trivially correct references at several
// capacities, plus internal histogram consistency.
func TestCompactionBeyond64K(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	p := MustNew(16)
	small := naiveLRU{capacity: 7}
	mid := naiveLRU{capacity: 100}
	c := cache.MustNew(cache.Config{
		Name: "fa", SizeBytes: 4096 * 16, BlockBytes: 16, Assoc: 0,
		Repl: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
	})
	var smallMiss, midMiss int64
	const distinct = 130_000 // > 64K: every access pattern crosses exactCap
	for i := 0; i < 260_000; i++ {
		var b uint64
		switch rng.Intn(4) {
		case 0:
			b = uint64(rng.Intn(50))
		case 1:
			b = uint64(rng.Intn(2000))
		default:
			b = uint64(rng.Intn(distinct))
		}
		a := b * 16
		p.Access(a)
		if !small.access(b) {
			smallMiss++
		}
		if !mid.access(b) {
			midMiss++
		}
		c.Access(a, false)
	}
	if p.DistinctBlocks() <= 1<<16 {
		t.Fatalf("only %d distinct blocks; test must exceed 64K", p.DistinctBlocks())
	}
	if got := p.MissesAtCapacity(7); got != smallMiss {
		t.Errorf("capacity 7: profiler %d, naive %d", got, smallMiss)
	}
	if got := p.MissesAtCapacity(100); got != midMiss {
		t.Errorf("capacity 100: profiler %d, naive %d", got, midMiss)
	}
	if got, want := p.MissesAtCapacity(4096), c.Stats().ReadMisses; got != want {
		t.Errorf("capacity 4096: profiler %d, simulation %d", got, want)
	}
	// Histogram bins plus cold references account for every access.
	var binned int64
	for _, b := range p.Histogram() {
		if b.Lo > b.Hi || b.Count <= 0 {
			t.Fatalf("malformed bin %+v", b)
		}
		binned += b.Count
	}
	if binned+p.Cold() != p.Total() {
		t.Errorf("histogram %d + cold %d != total %d", binned, p.Cold(), p.Total())
	}
}

// naiveDistance is the O(n·m) textbook stack-distance computation: a flat
// LRU stack searched linearly, returning the 1-based distance or 0 when the
// block is cold.
type naiveDistance struct {
	order []uint64 // MRU last
}

func (n *naiveDistance) access(block uint64) int64 {
	for i := len(n.order) - 1; i >= 0; i-- {
		if n.order[i] == block {
			d := int64(len(n.order) - i)
			copy(n.order[i:], n.order[i+1:])
			n.order[len(n.order)-1] = block
			return d
		}
	}
	n.order = append(n.order, block)
	return 0
}

// FuzzProfileEquivalence: for arbitrary reference strings the profiler's
// histogram and per-capacity miss counts equal the naive O(n·m) stack
// distance reference.
func FuzzProfileEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 1, 0})
	f.Add([]byte{255, 1, 255})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		p := MustNew(16)
		ref := &naiveDistance{}
		hist := map[int64]int64{}
		var cold int64
		for _, v := range raw {
			b := uint64(v % 64)
			p.Access(b * 16)
			if d := ref.access(b); d == 0 {
				cold++
			} else {
				hist[d]++
			}
		}
		if p.Cold() != cold {
			t.Fatalf("cold %d, naive %d", p.Cold(), cold)
		}
		got := map[int64]int64{}
		for _, b := range p.Histogram() {
			if b.Lo != b.Hi {
				t.Fatalf("deep bin %+v on a %d-ref trace", b, len(raw))
			}
			got[b.Lo] = b.Count
		}
		for d, c := range hist {
			if got[d] != c {
				t.Fatalf("distance %d: profiler %d, naive %d (trace %v)", d, got[d], c, raw)
			}
		}
		if len(got) != len(hist) {
			t.Fatalf("bin sets differ: profiler %v, naive %v (trace %v)", got, hist, raw)
		}
		for capacity := int64(1); capacity <= 65; capacity++ {
			var want int64 = cold
			for d, c := range hist {
				if d > capacity {
					want += c
				}
			}
			if p.MissesAtCapacity(capacity) != want {
				t.Fatalf("capacity %d: profiler %d, naive %d (trace %v)",
					capacity, p.MissesAtCapacity(capacity), want, raw)
			}
		}
	})
}

// Property: the fenwick tree agrees with a naive bitmap.
func TestQuickFenwick(t *testing.T) {
	f := func(ops []uint16) bool {
		const n = 128
		fw := newFenwick(n)
		naive := make([]bool, n)
		for _, op := range ops {
			i := int32(op % n)
			switch (op / n) % 3 {
			case 0:
				fw.set(i)
				naive[i] = true
			case 1:
				fw.clear(i)
				naive[i] = false
			case 2:
				want := int32(0)
				for j := int(i); j < n; j++ {
					if naive[j] {
						want++
					}
				}
				if fw.suffixSum(i) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
