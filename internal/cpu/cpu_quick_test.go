package cpu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mlcache/internal/memsys"
	"mlcache/internal/trace"
)

func randomBundledTrace(rng *rand.Rand, n int, pids int) trace.Trace {
	var tr trace.Trace
	for len(tr) < n {
		pid := uint16(rng.Intn(pids))
		tr = append(tr, trace.Ref{
			Kind: trace.IFetch,
			Addr: uint64(rng.Intn(1 << 18)),
			PID:  pid,
		})
		if rng.Intn(2) == 0 {
			kind := trace.Load
			if rng.Intn(3) != 0 {
				kind = trace.Store
			}
			tr = append(tr, trace.Ref{Kind: kind, Addr: uint64(rng.Intn(1 << 20)), PID: pid})
		}
	}
	return tr
}

// Property: reference counts in the result always match the trace
// composition (with zero warm-up), and time relations hold.
func TestQuickRunAccounting(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomBundledTrace(rng, 400, 3)
		var want trace.Counts
		for _, r := range tr {
			want.Add(r.Kind)
		}
		res, err := Run(baseHierarchy(), tr.Stream(), Config{CycleNS: 10})
		if err != nil {
			return false
		}
		if res.Instructions != want.IFetch || res.Loads != want.Load || res.Stores != want.Store {
			return false
		}
		if res.CPUReads != want.IFetch+want.Load {
			return false
		}
		// Real time is at least the ideal time, and ideal covers every
		// issue slot.
		return res.TimeNS >= res.IdealNS && res.IdealNS >= want.IFetch*10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: flushing at context switches never makes the first level
// faster — it never yields fewer first-level misses — and never changes
// the reference accounting. Execution time is not monotone: with seed
// -4018306397712216929 the flushing run finishes 160 ns sooner, because
// dirty L1D blocks reach the direct-mapped L2 at the switches instead of
// later as victims that miss there.
func TestQuickFlushNeverFaster(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomBundledTrace(rng, 600, 2)
		plain, err := Run(baseHierarchy(), tr.Stream(), Config{CycleNS: 10})
		if err != nil {
			return false
		}
		flush, err := Run(baseHierarchy(), tr.Stream(), Config{CycleNS: 10, FlushOnSwitch: true})
		if err != nil {
			return false
		}
		if flush.Instructions != plain.Instructions || flush.Stores != plain.Stores {
			return false
		}
		return firstLevelMisses(flush) >= firstLevelMisses(plain)
	}
	if !f(-4018306397712216929) {
		t.Error("property fails on seed -4018306397712216929")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// firstLevelMisses sums read and write misses over the first-level caches.
func firstLevelMisses(r Result) int64 {
	var n int64
	for _, ls := range []*memsys.LevelStats{r.Mem.L1I, r.Mem.L1D, r.Mem.L1} {
		if ls != nil {
			n += ls.Cache.ReadMisses + ls.Cache.WriteMisses
		}
	}
	return n
}

func TestFlushOnSwitchCountsSwitches(t *testing.T) {
	tr := trace.Trace{
		{Kind: trace.IFetch, Addr: 0x0, PID: 1},
		{Kind: trace.IFetch, Addr: 0x4, PID: 1},
		{Kind: trace.IFetch, Addr: 0x0, PID: 2}, // switch
		{Kind: trace.IFetch, Addr: 0x4, PID: 2},
		{Kind: trace.IFetch, Addr: 0x0, PID: 1}, // switch
	}
	res, err := Run(baseHierarchy(), tr.Stream(), Config{CycleNS: 10, FlushOnSwitch: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches != 2 {
		t.Errorf("switches = %d, want 2", res.Switches)
	}
	// Without the flag, no switches are counted.
	res, err = Run(baseHierarchy(), tr.Stream(), Config{CycleNS: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches != 0 {
		t.Errorf("switches without flag = %d, want 0", res.Switches)
	}
}

func TestFlushOnSwitchForcesRemisses(t *testing.T) {
	// Same address from the same PID with an intervening other-PID cycle:
	// with flushing the re-access misses again.
	tr := trace.Trace{
		{Kind: trace.IFetch, Addr: 0x0, PID: 1},
		{Kind: trace.IFetch, Addr: 0x100, PID: 2},
		{Kind: trace.IFetch, Addr: 0x0, PID: 1},
	}
	plain, err := Run(baseHierarchy(), tr.Stream(), Config{CycleNS: 10})
	if err != nil {
		t.Fatal(err)
	}
	flush, err := Run(baseHierarchy(), tr.Stream(), Config{CycleNS: 10, FlushOnSwitch: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Mem.L1I.Cache.ReadMisses != 2 {
		t.Errorf("plain misses = %d, want 2 (third access hits)", plain.Mem.L1I.Cache.ReadMisses)
	}
	if flush.Mem.L1I.Cache.ReadMisses != 3 {
		t.Errorf("flush misses = %d, want 3 (third access re-misses)", flush.Mem.L1I.Cache.ReadMisses)
	}
}
