package cpu

import (
	"testing"

	"mlcache/internal/cache"
	"mlcache/internal/mainmem"
	"mlcache/internal/memsys"
	"mlcache/internal/trace"
)

func baseHierarchy() *memsys.Hierarchy {
	l1 := func(name string) memsys.LevelConfig {
		return memsys.LevelConfig{
			Cache: cache.Config{
				Name: name, SizeBytes: 2 * 1024, BlockBytes: 16, Assoc: 1,
				Repl: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
			},
			CycleNS: 10,
		}
	}
	return memsys.MustNew(memsys.Config{
		CPUCycleNS: 10,
		SplitL1:    true,
		L1I:        l1("L1I"),
		L1D:        l1("L1D"),
		Down: []memsys.LevelConfig{{
			Cache: cache.Config{
				Name: "L2", SizeBytes: 64 * 1024, BlockBytes: 32, Assoc: 1,
				Repl: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
			},
			CycleNS: 30,
		}},
		Memory: mainmem.Base(),
	})
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{CycleNS: 10}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := (Config{CycleNS: 0}).Validate(); err == nil {
		t.Error("zero cycle accepted")
	}
	if err := (Config{CycleNS: 10, WarmupRefs: -1}).Validate(); err == nil {
		t.Error("negative warmup accepted")
	}
}

func TestCycleTimeMismatchRejected(t *testing.T) {
	h := baseHierarchy()
	_, err := Run(h, trace.Trace{}.Stream(), Config{CycleNS: 5})
	if err == nil {
		t.Error("mismatched cycle time accepted")
	}
}

// TestAllHitsLoop: a tight loop that fits in the L1I has relative execution
// time exactly 1 after the cold fill; here we include the cold misses, so
// it is slightly above 1, and a second run with warm-up excludes them.
func TestAllHitsLoop(t *testing.T) {
	var tr trace.Trace
	for i := 0; i < 1000; i++ {
		tr = append(tr, trace.Ref{Kind: trace.IFetch, Addr: uint64(i%16) * 4})
	}
	res, err := Run(baseHierarchy(), tr.Stream(), Config{CycleNS: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != 1000 {
		t.Errorf("instructions = %d, want 1000", res.Instructions)
	}
	if res.RelTime <= 1.0 || res.RelTime > 1.2 {
		t.Errorf("cold RelTime = %v, want slightly above 1", res.RelTime)
	}

	// The same loop measured after a warm-up prefix is a pure hit stream.
	res, err = Run(baseHierarchy(), tr.Stream(), Config{CycleNS: 10, WarmupRefs: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != 900 {
		t.Errorf("post-warmup instructions = %d, want 900", res.Instructions)
	}
	if res.RelTime != 1.0 {
		t.Errorf("warm RelTime = %v, want exactly 1.0", res.RelTime)
	}
	if res.CPI != 1.0 {
		t.Errorf("warm CPI = %v, want 1.0", res.CPI)
	}
}

// TestBundling: an ifetch followed by a data reference shares its cycle; a
// lone data reference occupies its own cycle.
func TestBundling(t *testing.T) {
	tr := trace.Trace{
		{Kind: trace.IFetch, Addr: 0x0},
		{Kind: trace.Load, Addr: 0x1000}, // same cycle as the ifetch
		{Kind: trace.IFetch, Addr: 0x4},
		{Kind: trace.IFetch, Addr: 0x8},
		{Kind: trace.Load, Addr: 0x1000}, // same cycle
		{Kind: trace.Load, Addr: 0x1000}, // lone data cycle
	}
	res, err := Run(baseHierarchy(), tr.Stream(), Config{CycleNS: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != 3 || res.Loads != 3 {
		t.Errorf("instr=%d loads=%d, want 3/3", res.Instructions, res.Loads)
	}
	// 4 issue slots of 10 ns each.
	if res.IdealNS != 40 {
		t.Errorf("IdealNS = %d, want 40", res.IdealNS)
	}
	if res.CPUReads != 6 {
		t.Errorf("CPUReads = %d, want 6", res.CPUReads)
	}
}

// TestStoreAccounting: store hits cost exactly one extra cycle in both the
// real and ideal machines, so an all-hit stream with stores still has
// relative time 1.
func TestStoreAccounting(t *testing.T) {
	tr := trace.Trace{
		{Kind: trace.Load, Addr: 0x100},  // cold fill
		{Kind: trace.Store, Addr: 0x100}, // hit
		{Kind: trace.Store, Addr: 0x100}, // hit
	}
	res, err := Run(baseHierarchy(), tr.Stream(), Config{CycleNS: 10, WarmupRefs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stores != 2 {
		t.Errorf("stores = %d, want 2", res.Stores)
	}
	// Two lone store cycles, each 2 cycles: 40 ns, both real and ideal.
	if res.TimeNS != 40 || res.IdealNS != 40 {
		t.Errorf("TimeNS = %d IdealNS = %d, want 40/40", res.TimeNS, res.IdealNS)
	}
	if res.RelTime != 1.0 {
		t.Errorf("RelTime = %v, want 1.0", res.RelTime)
	}
}

func TestMissesStallExactly(t *testing.T) {
	// One instruction, cold: base cycle 10 + L2 tag 30 + memory 270.
	tr := trace.Trace{{Kind: trace.IFetch, Addr: 0x0}}
	res, err := Run(baseHierarchy(), tr.Stream(), Config{CycleNS: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimeNS != 310 {
		t.Errorf("TimeNS = %d, want 310", res.TimeNS)
	}
	if res.Cycles != 31 {
		t.Errorf("Cycles = %d, want 31", res.Cycles)
	}
	if res.CPI != 31.0 {
		t.Errorf("CPI = %v, want 31", res.CPI)
	}
}

func TestWarmupExcludesTime(t *testing.T) {
	// Two cold misses to distinct L2 blocks; with warm-up covering the
	// first, only the second contributes to measured time.
	tr := trace.Trace{
		{Kind: trace.IFetch, Addr: 0x0},
		{Kind: trace.IFetch, Addr: 0x4000},
	}
	res, err := Run(baseHierarchy(), tr.Stream(), Config{CycleNS: 10, WarmupRefs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != 1 {
		t.Errorf("instructions = %d, want 1", res.Instructions)
	}
	if res.TimeNS != 310 {
		t.Errorf("TimeNS = %d, want 310", res.TimeNS)
	}
	if res.Mem.L1I.Cache.ReadMisses != 1 {
		t.Errorf("recorded L1I misses = %d, want 1", res.Mem.L1I.Cache.ReadMisses)
	}
}

func TestResultString(t *testing.T) {
	r := Result{Instructions: 10, CPI: 1.5, RelTime: 1.2}
	if r.String() == "" {
		t.Error("empty String()")
	}
}

func TestEmptyTrace(t *testing.T) {
	res, err := Run(baseHierarchy(), trace.Trace{}.Stream(), Config{CycleNS: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimeNS != 0 || res.Instructions != 0 || res.RelTime != 0 {
		t.Errorf("empty trace result = %+v", res)
	}
}

func TestPerPIDAccounting(t *testing.T) {
	tr := trace.Trace{
		{Kind: trace.IFetch, Addr: 0x0, PID: 1},
		{Kind: trace.Load, Addr: 0x1000, PID: 1},
		{Kind: trace.IFetch, Addr: 0x4, PID: 2},
		{Kind: trace.Store, Addr: 0x2000, PID: 2},
		{Kind: trace.IFetch, Addr: 0x8, PID: 1},
	}
	res, err := Run(baseHierarchy(), tr.Stream(), Config{CycleNS: 10})
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := res.PerPID[1], res.PerPID[2]
	if p1.Instructions != 2 || p1.Loads != 1 || p1.Stores != 0 {
		t.Errorf("pid 1 = %+v", p1)
	}
	if p2.Instructions != 1 || p2.Stores != 1 {
		t.Errorf("pid 2 = %+v", p2)
	}
	// Per-PID time sums to the run time.
	if p1.TimeNS+p2.TimeNS != res.TimeNS {
		t.Errorf("per-PID time %d+%d != total %d", p1.TimeNS, p2.TimeNS, res.TimeNS)
	}
	if p1.CPI(10) <= 0 {
		t.Errorf("pid 1 CPI = %v", p1.CPI(10))
	}
	if (PIDStats{}).CPI(10) != 0 {
		t.Error("zero PIDStats CPI must be 0")
	}
}

func TestStallHistogram(t *testing.T) {
	tr := trace.Trace{
		{Kind: trace.IFetch, Addr: 0x0},   // slot 1: cold miss, ~30-cycle stall
		{Kind: trace.IFetch, Addr: 0x4},   // slot 2: hit...
		{Kind: trace.Store, Addr: 0x2000}, // ...bundled store miss: stalls too
		{Kind: trace.IFetch, Addr: 0x10},  // slot 3: L1 miss, L2 hit: 3 cycles
		{Kind: trace.IFetch, Addr: 0x14},  // slot 4: hit, stall-free
	}
	res, err := Run(baseHierarchy(), tr.Stream(), Config{CycleNS: 10})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range res.StallHist {
		total += c
	}
	if total != 4 {
		t.Fatalf("histogram total = %d, want 4 slots", total)
	}
	_ = total
	if res.StallHist[0] != 1 {
		t.Errorf("stall-free slots = %d, want 1", res.StallHist[0])
	}
	// The ~30-cycle stalls land in bucket [16,32) = 5.
	if res.StallHist[5] == 0 {
		t.Errorf("no slot in the 16-32 cycle bucket: %v", res.StallHist)
	}
	// The 3-cycle stall lands in bucket [2,4) = 2.
	if res.StallHist[2] == 0 {
		t.Errorf("no slot in the 2-4 cycle bucket: %v", res.StallHist)
	}
	if got := res.StallAtMost(15); got != 1.0 {
		t.Errorf("StallAtMost(15) = %v, want 1", got)
	}
	if got := res.StallAtMost(0); got != 0.25 {
		t.Errorf("StallAtMost(0) = %v, want 0.25", got)
	}
	if (Result{}).StallAtMost(3) != 0 {
		t.Error("empty result StallAtMost must be 0")
	}
}

func TestStallBucketBoundaries(t *testing.T) {
	cases := []struct {
		cycles int64
		want   int
	}{
		{-1, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1<<14 - 1, 14}, {1 << 14, 15}, {1 << 20, 15}, {1<<63 - 1, 15},
	}
	for _, c := range cases {
		if got := stallBucket(c.cycles); got != c.want {
			t.Errorf("stallBucket(%d) = %d, want %d", c.cycles, got, c.want)
		}
	}
}
