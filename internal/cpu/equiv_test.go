package cpu_test

import (
	"errors"
	"reflect"
	"testing"

	"mlcache/internal/cache"
	"mlcache/internal/cpu"
	"mlcache/internal/mainmem"
	"mlcache/internal/memsys"
	"mlcache/internal/synth"
	"mlcache/internal/trace"
)

// The equivalence suite proves the batched arena path yields bit-identical
// results to the legacy per-ref stream path for every hierarchy shape the
// paper exercises. Both paths feed the same issue loop, so any divergence
// means the batching, the arena, or the Reset contract broke semantics.

const (
	equivCycleNS = 10
	equivRefs    = 60_000
	equivWarmup  = 12_000
)

func equivLevel(name string, sizeBytes int64, blockBytes int, cycleNS int64) memsys.LevelConfig {
	return memsys.LevelConfig{
		Cache: cache.Config{
			Name:       name,
			SizeBytes:  sizeBytes,
			BlockBytes: blockBytes,
			Assoc:      1,
			Repl:       cache.LRU,
			Write:      cache.WriteBack,
			Alloc:      cache.WriteAllocate,
		},
		CycleNS: cycleNS,
	}
}

// equivConfigs enumerates the hierarchy shapes required by the suite:
// base machine, split and unified L1, write-through, prefetch into L1 and
// into L2, a TLB, 3-level, and one run with the invariant checker on — the
// paths on either side of the first-level hit fast path.
func equivConfigs() map[string]memsys.Config {
	base := func() memsys.Config {
		return memsys.Config{
			CPUCycleNS: equivCycleNS,
			SplitL1:    true,
			L1I:        equivLevel("L1I", 2*1024, 16, equivCycleNS),
			L1D:        equivLevel("L1D", 2*1024, 16, equivCycleNS),
			Down:       []memsys.LevelConfig{equivLevel("L2", 512*1024, 32, 3*equivCycleNS)},
			WBDepth:    4,
			Memory:     mainmem.Base(),
		}
	}
	cfgs := map[string]memsys.Config{}
	cfgs["base"] = base()

	unified := base()
	unified.SplitL1 = false
	unified.L1 = equivLevel("L1", 4*1024, 16, equivCycleNS)
	unified.L1I, unified.L1D = memsys.LevelConfig{}, memsys.LevelConfig{}
	cfgs["unified-l1"] = unified

	wt := base()
	wt.L1D.Cache.Write = cache.WriteThrough
	wt.L1D.Cache.Alloc = cache.NoWriteAllocate
	cfgs["write-through-l1d"] = wt

	pf := base()
	pf.Down[0].Prefetch = true
	cfgs["prefetch-l2"] = pf

	pf1 := base()
	pf1.L1I.Prefetch, pf1.L1D.Prefetch = true, true
	cfgs["prefetch-l1"] = pf1

	tlb := base()
	tlb.TLB = memsys.TLBConfig{Entries: 16}
	cfgs["tlb"] = tlb

	// The checker sweeps every line per access: a small L2 keeps it quick.
	checked := base()
	checked.Down[0] = equivLevel("L2", 4*1024, 32, 3*equivCycleNS)
	checked.CheckInvariants = true
	cfgs["checked"] = checked

	three := base()
	three.Down = []memsys.LevelConfig{
		equivLevel("L2", 64*1024, 32, 2*equivCycleNS),
		equivLevel("L3", 1024*1024, 64, 5*equivCycleNS),
	}
	cfgs["three-level"] = three
	return cfgs
}

func equivCPU() cpu.Config {
	return cpu.Config{CycleNS: equivCycleNS, WarmupRefs: equivWarmup}
}

func runOn(t *testing.T, cfg memsys.Config, s trace.Stream) cpu.Result {
	t.Helper()
	h, err := memsys.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cpu.Run(h, s, equivCPU())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// slowStream hides a stream's concrete type, so even an arena Cursor takes
// the one-call-per-reference legacy path.
type slowStream struct{ s trace.Stream }

func (w slowStream) Next() (trace.Ref, error) { return w.s.Next() }

func TestArenaPathEquivalence(t *testing.T) {
	arena, err := trace.Materialize(synth.PaperStream(1, equivRefs))
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range equivConfigs() {
		t.Run(name, func(t *testing.T) {
			legacy := runOn(t, cfg, slowStream{synth.PaperStream(1, equivRefs)})
			batched := runOn(t, cfg, arena.Cursor())
			if !reflect.DeepEqual(legacy, batched) {
				t.Fatalf("arena path diverged from legacy stream path:\nlegacy:  %+v\nbatched: %+v", legacy, batched)
			}
			// A cursor consumed through Next alone (no batching) must
			// agree too.
			perRef := runOn(t, cfg, slowStream{arena.Cursor()})
			if !reflect.DeepEqual(legacy, perRef) {
				t.Fatalf("per-ref cursor path diverged from legacy stream path")
			}
		})
	}
}

func TestResetEquivalence(t *testing.T) {
	arena, err := trace.Materialize(synth.PaperStream(1, equivRefs))
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range equivConfigs() {
		t.Run(name, func(t *testing.T) {
			h, err := memsys.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			first, err := cpu.Run(h, arena.Cursor(), equivCPU())
			if err != nil {
				t.Fatal(err)
			}
			h.Reset()
			second, err := cpu.Run(h, arena.Cursor(), equivCPU())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("reset hierarchy diverged from fresh run:\nfirst:  %+v\nsecond: %+v", first, second)
			}
		})
	}
}

// TestResetForEquivalence walks one hierarchy through every equivalence
// configuration and a slower L2: L2 timing and size, an added and a dropped
// L3, split and unified L1s, a TLB, prefetch and the invariant checker.
// After each ResetFor, and after the Reset that follows it, a run must
// equal a fresh hierarchy's. An invalid configuration is then refused, and
// the hierarchy runs on as if the call had never been made.
func TestResetForEquivalence(t *testing.T) {
	arena, err := trace.Materialize(synth.PaperStream(1, equivRefs))
	if err != nil {
		t.Fatal(err)
	}
	run := func(h *memsys.Hierarchy) cpu.Result {
		t.Helper()
		res, err := cpu.Run(h, arena.Cursor(), equivCPU())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cfgs := equivConfigs()
	slow := equivConfigs()["base"]
	slow.Down[0].CycleNS = 5 * equivCycleNS
	cfgs["slow-l2"] = slow
	names := []string{"base", "slow-l2", "three-level", "unified-l1", "tlb", "base",
		"checked", "prefetch-l1", "write-through-l1d", "prefetch-l2", "unified-l1", "three-level"}
	h := memsys.MustNew(cfgs["checked"])
	run(h)
	for _, name := range names {
		cfg := cfgs[name]
		if err := h.ResetFor(cfg); err != nil {
			t.Fatalf("ResetFor(%s): %v", name, err)
		}
		fresh := runOn(t, cfg, arena.Cursor())
		if got := run(h); !reflect.DeepEqual(fresh, got) {
			t.Fatalf("%s: ResetFor run differs from a fresh run:\nfresh:  %+v\nreused: %+v", name, fresh, got)
		}
		h.Reset()
		if got := run(h); !reflect.DeepEqual(fresh, got) {
			t.Fatalf("%s: Reset run differs from a fresh run:\nfresh: %+v\nreset: %+v", name, fresh, got)
		}
	}

	last := cfgs[names[len(names)-1]]
	bad := last
	bad.Down = append([]memsys.LevelConfig(nil), last.Down...)
	bad.Down[1].Cache.SizeBytes = 3 << 20 // not a power of two
	if err := h.ResetFor(bad); err == nil {
		t.Fatal("ResetFor accepted an invalid configuration")
	}
	if !reflect.DeepEqual(h.Config(), last) {
		t.Fatalf("a refused ResetFor changed the configuration to %+v", h.Config())
	}
	// h has run last once since its Reset; so has twin. Both run again.
	twin := memsys.MustNew(last)
	run(twin)
	if want, got := run(twin), run(h); !reflect.DeepEqual(want, got) {
		t.Fatalf("run after a refused ResetFor differs:\nwant: %+v\ngot:  %+v", want, got)
	}
}

// FuzzResetForVsNew: a hierarchy that ran one configuration and was then
// re-purposed by ResetFor for another simulates exactly what a fresh
// memsys.New of the second does. The first two draws share the split or
// unified L1, the level count, the TLB and every cache's geometry, and
// differ in each level's cycle, write cycles, replacement, write and
// allocation policy, seed and prefetch, the write buffers, memory timing,
// the bus and the TLB walk. A third draw then changes the L2's size or
// associativity, adds or drops an L3, swaps a split L1 for a unified one
// or back, changes the block or fetch size of the first level or the L2
// while keeping its sets and ways, or adds or drops the TLB. ResetFor must
// take it and match a fresh run, and so must the Reset after it; an
// invalid draw must be refused with the hierarchy left as it was.
func FuzzResetForVsNew(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, []byte{0, 1, 2, 3, 4, 5, 6, 7})
	shapeKnobs := []byte{2, 1, 1, 1, 2, 7, 1, 0, 2, 1, 2, 1, 1, 2, 1, 0, 3, 2, 1, 0, 1, 4, 2, 1, 1, 1, 1, 1, 2,
		3, 1, 0, 2, 1, 1, 2, 2, 2, 0, 1, 1, 1, 1, 1, 2, 1, 1, 1, 3, 3, 1, 0, 2, 2, 4, 1, 3, 2, 2, 1, 1}
	seedRaw := []byte{255, 17, 3, 200, 9, 64, 128, 31, 77, 12, 250, 6, 90, 33, 4, 181}
	// One seed per kind of change: the first four knobs pick it.
	for _, change := range [][]byte{{1, 3, 1, 5}, {2, 0, 0, 0}, {3, 0, 0, 0}, {4, 0, 0, 0}, {4, 1, 1, 2}, {5, 0, 1, 0}} {
		f.Add(append(change, shapeKnobs...), seedRaw)
	}
	// An L2 of 64-byte blocks whose fetch size drops to 32: with the
	// trace's 16-byte data offsets, a stale fetch shift changes the hits.
	f.Add(append([]byte{4, 1, 1, 0, 0, 0, 0, 0, 1, 2, 0, 0, 1, 2, 1, 0, 1, 0, 1}, shapeKnobs[15:]...), seedRaw)
	f.Fuzz(func(t *testing.T, knobs, raw []byte) {
		if len(raw) < 2 || len(raw) > 4096 {
			return
		}
		refs := make([]trace.Ref, 0, 2*len(raw))
		for i := 0; i+1 < len(raw); i++ {
			b, c := raw[i], raw[i+1]
			refs = append(refs,
				trace.Ref{Kind: trace.IFetch, Addr: 1<<20 + uint64(i%64)*4},
				trace.Ref{Kind: trace.Kind(1 + c%2), Addr: uint64(b)<<7 | uint64(c&7)<<4})
		}
		arena := trace.NewArena(refs)
		picker := func(b []byte) func(int) int {
			return func(n int) int {
				if len(b) == 0 {
					return 0
				}
				v := int(b[0]) % n
				b = b[1:]
				return v
			}
		}
		// The change's draws come first, so short inputs reach every kind.
		k := min(len(knobs), 4)
		pickChange, pick := picker(knobs[:k]), picker(knobs[k:])

		shape := resetForShape(pick)
		first, second := resetForTiming(shape, pick), resetForTiming(shape, pick)
		if first.Validate() != nil || second.Validate() != nil {
			return
		}
		run := cpu.Config{CycleNS: equivCycleNS, WarmupRefs: int64(pick(3)) * int64(len(refs)) / 4}
		simulate := func(h *memsys.Hierarchy) cpu.Result {
			t.Helper()
			res, err := cpu.Run(h, arena.Cursor(), run)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		fresh := simulate(memsys.MustNew(second))

		h := memsys.MustNew(first)
		simulate(h)
		if err := h.ResetFor(second); err != nil {
			t.Fatalf("ResetFor refused a valid configuration: %v", err)
		}
		if got := simulate(h); !reflect.DeepEqual(got, fresh) {
			t.Fatalf("ResetFor run differs from a fresh run:\nfresh:  %+v\nreused: %+v", fresh, got)
		}

		changed := resetForChange(second, pickChange)
		if changed.Validate() != nil {
			if err := h.ResetFor(changed); err == nil {
				t.Fatalf("ResetFor accepted an invalid configuration: %+v", changed)
			}
			if !reflect.DeepEqual(h.Config(), second) {
				t.Fatalf("a refused ResetFor changed the configuration to %+v", h.Config())
			}
			// h has run second once since its ResetFor; so has twin.
			twin := memsys.MustNew(second)
			simulate(twin)
			if want, got := simulate(twin), simulate(h); !reflect.DeepEqual(got, want) {
				t.Fatalf("run after a refused ResetFor differs:\nwant: %+v\ngot:  %+v", want, got)
			}
			return
		}
		if err := h.ResetFor(changed); err != nil {
			t.Fatalf("ResetFor refused a valid configuration: %v", err)
		}
		fresh = simulate(memsys.MustNew(changed))
		if got := simulate(h); !reflect.DeepEqual(got, fresh) {
			t.Fatalf("ResetFor run after a change differs from a fresh run:\nfresh:  %+v\nreused: %+v", fresh, got)
		}
		h.Reset()
		if got := simulate(h); !reflect.DeepEqual(got, fresh) {
			t.Fatalf("Reset run differs from a fresh run:\nfresh: %+v\nreset: %+v", fresh, got)
		}
	})
}

// resetForShape draws the geometry FuzzResetForVsNew keeps: a split or
// unified L1 of 256 B to 2 KiB, an L2 of 4 to 128 KiB (paged past
// 64 KiB), an optional L3 and an optional TLB, sub-blocked or not.
func resetForShape(pick func(int) int) memsys.Config {
	level := func(name string, size int64, block int) memsys.LevelConfig {
		lc := equivLevel(name, size, block, equivCycleNS)
		lc.Cache.Assoc = 1 << pick(3)
		if pick(4) == 0 {
			lc.Cache.FetchBytes = block / 2
		}
		return lc
	}
	cfg := memsys.Config{CPUCycleNS: equivCycleNS, Memory: mainmem.Base()}
	l1 := func(name string) memsys.LevelConfig { return level(name, 256<<pick(4), 16<<pick(2)) }
	if pick(2) == 0 {
		cfg.SplitL1, cfg.L1I, cfg.L1D = true, l1("L1I"), l1("L1D")
	} else {
		cfg.L1 = l1("L1")
	}
	l2 := level("L2", 4096<<pick(6), 32<<pick(2))
	cfg.Down = []memsys.LevelConfig{l2}
	if pick(2) == 1 {
		cfg.Down = append(cfg.Down, level("L3", l2.Cache.SizeBytes<<(1+pick(2)), l2.Cache.BlockBytes<<pick(2)))
	}
	if pick(3) == 0 {
		cfg.TLB = memsys.TLBConfig{Entries: 8 << pick(2), Assoc: 2 * pick(2)}
	}
	return cfg
}

// resetForTiming returns shape with everything but its structure and its
// caches' geometry drawn anew.
func resetForTiming(shape memsys.Config, pick func(int) int) memsys.Config {
	cfg := shape
	cfg.Down = append([]memsys.LevelConfig(nil), shape.Down...)
	level := func(lc *memsys.LevelConfig, cycles int) {
		lc.CycleNS = equivCycleNS * int64(cycles+pick(3))
		lc.WriteCycles = pick(4)
		lc.Prefetch = pick(4) == 0
		lc.Cache.Repl = cache.Replacement(pick(3))
		lc.Cache.Write = cache.WritePolicy(pick(2))
		lc.Cache.Alloc = cache.AllocPolicy(pick(2))
		lc.Cache.Seed = int64(pick(3))
	}
	if cfg.SplitL1 {
		level(&cfg.L1I, 1)
		level(&cfg.L1D, 1)
	} else {
		level(&cfg.L1, 1)
	}
	for i := range cfg.Down {
		level(&cfg.Down[i], 2+2*i)
	}
	cfg.WBDepth = []int{-1, 0, 1, 2, 8}[pick(5)]
	cfg.WBCoalesce = pick(2) == 1
	cfg.Memory = mainmem.Config{
		ReadNS:     60 + 40*int64(pick(4)),
		WriteNS:    40 + 30*int64(pick(4)),
		RecoveryNS: 40 * int64(pick(4)),
	}
	if pick(3) == 0 {
		cfg.Memory = cfg.Memory.WithPageMode(256<<pick(3), 30)
	}
	cfg.MemBusWidthBytes = []int{0, 4, 8, 32}[pick(4)]
	cfg.MemBusCycleNS = equivCycleNS * int64(pick(4))
	cfg.TLB.WalkLevels = pick(4)
	return cfg
}

// resetForChange returns cfg with its L2's size or associativity, the
// presence of an L3, the split of its L1, the block or fetch size of its
// first level or L2 (a block halved with the size and fetch size, so the
// sets and ways stay), or the presence of a TLB changed.
func resetForChange(cfg memsys.Config, pick func(int) int) memsys.Config {
	cfg.Down = append([]memsys.LevelConfig(nil), cfg.Down...)
	l2 := &cfg.Down[0].Cache
	first := &cfg.L1.Cache
	if cfg.SplitL1 {
		first = &cfg.L1D.Cache
	}
	switch pick(6) {
	case 0:
		l2.SizeBytes *= 2
	case 1:
		if l2.Assoc < 8 {
			l2.Assoc *= 2
		} else {
			l2.Assoc /= 2
		}
	case 2:
		if len(cfg.Down) > 1 {
			cfg.Down = cfg.Down[:1]
		} else {
			cfg.Down = append(cfg.Down, equivLevel("L3", 2*l2.SizeBytes, l2.BlockBytes, 4*equivCycleNS))
		}
	case 3:
		// A unified L1 takes the L1I's shape, so it can differ from the L1D's.
		if cfg.SplitL1 {
			cfg.SplitL1, cfg.L1, cfg.L1I, cfg.L1D = false, cfg.L1I, memsys.LevelConfig{}, memsys.LevelConfig{}
		} else {
			cfg.SplitL1, cfg.L1I, cfg.L1D, cfg.L1 = true, cfg.L1, cfg.L1, memsys.LevelConfig{}
		}
	case 4:
		// Sets and ways stay, so the cache keeps its array. Halving an L2
		// block below the first level's is invalid.
		c := []*cache.Config{first, l2}[pick(2)]
		if pick(2) == 0 {
			c.BlockBytes /= 2
			c.SizeBytes /= 2
			c.FetchBytes /= 2
		} else {
			c.FetchBytes = c.BlockBytes >> (1 + pick(3))
		}
	default:
		if cfg.TLB.Entries > 0 {
			cfg.TLB = memsys.TLBConfig{}
		} else {
			cfg.TLB = memsys.TLBConfig{Entries: 8 << pick(2), Assoc: 2 * pick(2)}
		}
	}
	return cfg
}

func TestInterruptStopsRun(t *testing.T) {
	arena, err := trace.Materialize(synth.PaperStream(1, equivRefs))
	if err != nil {
		t.Fatal(err)
	}
	h, err := memsys.New(equivConfigs()["base"])
	if err != nil {
		t.Fatal(err)
	}
	stop := &struct{ err error }{}
	calls := 0
	cfg := equivCPU()
	cfg.Interrupt = func() error {
		calls++
		if calls > 3 {
			stop.err = trace.ErrCorrupt // any sentinel
			return stop.err
		}
		return nil
	}
	if _, err := cpu.Run(h, arena.Cursor(), cfg); err != stop.err {
		t.Fatalf("Run error = %v, want the interrupt error", err)
	}
}

// refSources returns, by name, fresh streams over refs for each way the
// issue loop can receive them: zero-copy Cursor chunks, and one Next call
// per reference from a Cursor or a plain Stream. All of them place batch
// boundaries every 4096 references and poll Interrupt at the same points.
func refSources(refs []trace.Ref) map[string]func() trace.Stream {
	arena := trace.NewArena(refs)
	return map[string]func() trace.Stream{
		"cursor":      func() trace.Stream { return arena.Cursor() },
		"cursor-next": func() trace.Stream { return slowStream{arena.Cursor()} },
		"stream":      func() trace.Stream { return trace.Trace(refs).Stream() },
	}
}

func runCPU(t *testing.T, s trace.Stream, ccfg cpu.Config) (cpu.Result, error) {
	t.Helper()
	h, err := memsys.New(equivConfigs()["base"])
	if err != nil {
		t.Fatal(err)
	}
	return cpu.Run(h, s, ccfg)
}

// TestBatchBoundaryEquivalence puts the issue loop's state transitions
// exactly on the 4096-reference batch boundary — the warm-up flip at the
// last reference of a batch and at the first of the next, an instruction
// fetch ending one batch whose paired data reference starts the next — and
// requires identical results from every source. They must also match a run
// in batches of 1000, whose boundaries fall elsewhere.
func TestBatchBoundaryEquivalence(t *testing.T) {
	base, err := trace.Collect(synth.PaperStream(1, 3*4096+500), 0)
	if err != nil {
		t.Fatal(err)
	}
	type tcase struct {
		refs   []trace.Ref
		warmup int64
	}
	cases := map[string]tcase{
		"warmup-4095": {base, 4095},
		"warmup-4096": {base, 4096},
	}
	for _, k := range []trace.Kind{trace.Load, trace.Store} {
		refs := append([]trace.Ref(nil), base...)
		refs[4095].Kind, refs[4096].Kind = trace.IFetch, k
		cases["ifetch-pair-across-batches-"+k.String()] = tcase{refs, 1000}
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			ccfg := cpu.Config{CycleNS: equivCycleNS, WarmupRefs: tc.warmup}
			restore := cpu.SetBatchRefs(1000)
			want, err := runCPU(t, trace.NewArena(tc.refs).Cursor(), ccfg)
			restore()
			if err != nil {
				t.Fatal(err)
			}
			for src, mk := range refSources(tc.refs) {
				got, err := runCPU(t, mk(), ccfg)
				if err != nil {
					t.Fatalf("%s: %v", src, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s diverged from short batches:\ngot:  %+v\nwant: %+v", src, got, want)
				}
			}
		})
	}
}

// TestInterruptBetweenBatches stops a run at its third batch refill: every
// source must stop at the same reference with the same partial result.
func TestInterruptBetweenBatches(t *testing.T) {
	refs, err := trace.Collect(synth.PaperStream(1, 4*4096), 0)
	if err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	var want *cpu.Result
	for src, mk := range refSources(refs) {
		calls := 0
		ccfg := cpu.Config{CycleNS: equivCycleNS, Interrupt: func() error {
			if calls++; calls == 3 {
				return stop
			}
			return nil
		}}
		got, err := runCPU(t, mk(), ccfg)
		if !errors.Is(err, stop) {
			t.Fatalf("%s: Run error = %v, want the interrupt error", src, err)
		}
		if n := got.CPUReads + got.Stores; n != 2*4096 {
			t.Fatalf("%s: stopped after %d references, want the two batches before the poll", src, n)
		}
		if want == nil {
			want = &got
		} else if !reflect.DeepEqual(got, *want) {
			t.Fatalf("%s: interrupted result diverged:\ngot:  %+v\nwant: %+v", src, got, *want)
		}
	}
}
