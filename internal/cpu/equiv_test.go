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

func TestResetForEquivalence(t *testing.T) {
	arena, err := trace.Materialize(synth.PaperStream(1, equivRefs))
	if err != nil {
		t.Fatal(err)
	}
	// Same geometry, different L2 timing: the sweep's reuse pattern.
	mk := func(cyc int64) memsys.Config {
		cfg := equivConfigs()["base"]
		cfg.Down[0].CycleNS = cyc
		return cfg
	}
	slowCfg := mk(5 * equivCycleNS)
	fresh := runOn(t, slowCfg, arena.Cursor())

	h, err := memsys.New(mk(3 * equivCycleNS))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cpu.Run(h, arena.Cursor(), equivCPU()); err != nil {
		t.Fatal(err)
	}
	if !h.ResetFor(slowCfg) {
		t.Fatal("ResetFor refused a same-geometry config")
	}
	reused, err := cpu.Run(h, arena.Cursor(), equivCPU())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, reused) {
		t.Fatalf("ResetFor hierarchy diverged from fresh run:\nfresh:  %+v\nreused: %+v", fresh, reused)
	}

	// Geometry changes must be refused.
	big := mk(3 * equivCycleNS)
	big.Down[0].Cache.SizeBytes *= 2
	if h.ResetFor(big) {
		t.Fatal("ResetFor accepted a different L2 size")
	}
	split := mk(3 * equivCycleNS)
	split.SplitL1 = false
	split.L1 = equivLevel("L1", 4*1024, 16, equivCycleNS)
	if h.ResetFor(split) {
		t.Fatal("ResetFor accepted a structural change")
	}
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
