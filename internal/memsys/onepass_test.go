package memsys_test

// Capture/replay equivalence: for every downstream variant sharing the
// pivot's first level, replaying the captured boundary log must reproduce
// the execution time and every downstream counter of a full end-to-end
// simulation of that variant. This is the property the one-pass sweep
// planner rests on.

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

func onepassBase() memsys.Config {
	l1 := func(name string) memsys.LevelConfig {
		return memsys.LevelConfig{
			Cache: cache.Config{
				Name: name, SizeBytes: 2 * 1024, BlockBytes: 16, Assoc: 1,
				Repl: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
			},
			CycleNS: 10,
		}
	}
	return memsys.Config{
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
	}
}

func onepassArena(t *testing.T, n int64) *trace.Arena {
	t.Helper()
	a, err := trace.Materialize(synth.PaperStream(5, n))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// capture runs the pivot configuration end to end with a tap attached and
// returns the boundary log plus the pivot result.
func capture(t *testing.T, cfg memsys.Config, a *trace.Arena, warmup int64) (*memsys.DownLog, cpu.Result) {
	t.Helper()
	h := memsys.MustNew(cfg)
	rec := memsys.NewDownRecorder()
	h.SetTap(rec)
	ccfg := cpu.Config{CycleNS: cfg.CPUCycleNS, WarmupRefs: warmup, OnRecordingStart: rec.MarkRecordingStart}
	if warmup == 0 {
		rec.MarkRecordingStart(0)
	}
	res, err := cpu.Run(h, a.Cursor(), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	h.SetTap(nil)
	return rec.Finish(res.TimeNS), res
}

func runFull(t *testing.T, cfg memsys.Config, a *trace.Arena, warmup int64) cpu.Result {
	t.Helper()
	res, err := cpu.Run(memsys.MustNew(cfg), a.Cursor(), cpu.Config{CycleNS: cfg.CPUCycleNS, WarmupRefs: warmup})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkReplay replays log on cfg and compares against a full simulation.
func checkReplay(t *testing.T, name string, cfg memsys.Config, a *trace.Arena, warmup int64, log *memsys.DownLog) {
	t.Helper()
	h := memsys.MustNew(cfg)
	gotNS, err := h.ReplayDown(log, nil)
	if err != nil {
		t.Fatalf("%s: replay: %v", name, err)
	}
	checkFull(t, name, cfg, a, warmup, h, gotNS)
}

// checkFull compares a replayed hierarchy h, which measured gotNS, against
// a full simulation of cfg.
func checkFull(t *testing.T, name string, cfg memsys.Config, a *trace.Arena, warmup int64, h *memsys.Hierarchy, gotNS int64) {
	t.Helper()
	full := runFull(t, cfg, a, warmup)
	if gotNS != full.TimeNS {
		t.Errorf("%s: replay time %d, full simulation %d", name, gotNS, full.TimeNS)
	}
	st := h.Stats()
	if !reflect.DeepEqual(st.Down, full.Mem.Down) {
		t.Errorf("%s: downstream stats diverge\nreplay: %+v\nfull:   %+v", name, st.Down, full.Mem.Down)
	}
	if st.MemReads != full.Mem.MemReads || st.MemWrites != full.Mem.MemWrites || st.MemStallNS != full.Mem.MemStallNS {
		t.Errorf("%s: memory stats diverge: replay %d/%d/%d, full %d/%d/%d", name,
			st.MemReads, st.MemWrites, st.MemStallNS, full.Mem.MemReads, full.Mem.MemWrites, full.Mem.MemStallNS)
	}
	if !reflect.DeepEqual(st.MemBuf, full.Mem.MemBuf) {
		t.Errorf("%s: memory write-buffer stats diverge: replay %+v, full %+v", name, st.MemBuf, full.Mem.MemBuf)
	}
	if st.MemBusBusyCycles != full.Mem.MemBusBusyCycles {
		t.Errorf("%s: bus cycles diverge: replay %d, full %d", name, st.MemBusBusyCycles, full.Mem.MemBusBusyCycles)
	}
}

// TestReplayMatchesPivotConfig: the degenerate replay (same config as the
// pivot) reproduces the pivot's own numbers.
func TestReplayMatchesPivotConfig(t *testing.T) {
	a := onepassArena(t, 60_000)
	cfg := onepassBase()
	log, _ := capture(t, cfg, a, 12_000)
	checkReplay(t, "pivot", cfg, a, 12_000, log)
}

// TestReplayAcrossDownstreamVariants: one capture serves every downstream
// variation the planner classifies as analytic.
func TestReplayAcrossDownstreamVariants(t *testing.T) {
	a := onepassArena(t, 80_000)
	base := onepassBase()
	const warmup = 16_000
	log, _ := capture(t, base, a, warmup)

	variants := map[string]func(*memsys.Config){
		"smaller L2":      func(c *memsys.Config) { c.Down[0].Cache.SizeBytes = 16 * 1024 },
		"larger L2":       func(c *memsys.Config) { c.Down[0].Cache.SizeBytes = 512 * 1024 },
		"2-way L2":        func(c *memsys.Config) { c.Down[0].Cache.Assoc = 2 },
		"slow L2":         func(c *memsys.Config) { c.Down[0].CycleNS = 80 },
		"L2 write cycles": func(c *memsys.Config) { c.Down[0].WriteCycles = 3 },
		"sub-block L2":    func(c *memsys.Config) { c.Down[0].Cache.FetchBytes = 16; c.Down[0].Cache.BlockBytes = 64 },
		"deep buffers":    func(c *memsys.Config) { c.WBDepth = 8 },
		"shallow buffers": func(c *memsys.Config) { c.WBDepth = 1 },
		"coalescing":      func(c *memsys.Config) { c.WBCoalesce = true },
		"no buffers":      func(c *memsys.Config) { c.WBDepth = -1 },
		"slow memory":     func(c *memsys.Config) { c.Memory.ReadNS *= 4; c.Memory.WriteNS *= 4 },
		"narrow bus":      func(c *memsys.Config) { c.MemBusWidthBytes = 4 },
		"no L2":           func(c *memsys.Config) { c.Down = nil },
		"three levels": func(c *memsys.Config) {
			c.Down = append(c.Down, memsys.LevelConfig{
				Cache: cache.Config{
					Name: "L3", SizeBytes: 1024 * 1024, BlockBytes: 64, Assoc: 1,
					Repl: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
				},
				CycleNS: 60,
			})
		},
	}
	for name, mutate := range variants {
		cfg := onepassBase()
		mutate(&cfg)
		checkReplay(t, name, cfg, a, warmup, log)
	}
}

// TestReplayWriteThroughFirstLevel: a write-through first level sends every
// store down; the boundary log carries them as write-down events.
func TestReplayWriteThroughFirstLevel(t *testing.T) {
	a := onepassArena(t, 50_000)
	base := onepassBase()
	base.L1I.Cache.Write = cache.WriteThrough
	base.L1D.Cache.Write = cache.WriteThrough
	base.L1D.Cache.Alloc = cache.NoWriteAllocate
	const warmup = 10_000
	log, _ := capture(t, base, a, warmup)
	for name, l2 := range map[string]int64{"small L2": 16 * 1024, "big L2": 256 * 1024} {
		cfg := base
		cfg.Down = append([]memsys.LevelConfig(nil), base.Down...)
		cfg.Down[0].Cache.SizeBytes = l2
		checkReplay(t, name, cfg, a, warmup, log)
	}
}

// TestReplayUnifiedFirstLevel: unified L1 groups capture and replay too.
func TestReplayUnifiedFirstLevel(t *testing.T) {
	a := onepassArena(t, 50_000)
	cfg := onepassBase()
	cfg.SplitL1 = false
	cfg.L1 = cfg.L1I
	cfg.L1.Cache.Name = "L1"
	cfg.L1.Cache.SizeBytes = 4 * 1024
	cfg.L1I, cfg.L1D = memsys.LevelConfig{}, memsys.LevelConfig{}
	const warmup = 10_000
	log, _ := capture(t, cfg, a, warmup)
	variant := cfg
	variant.Down = append([]memsys.LevelConfig(nil), cfg.Down...)
	variant.Down[0].Cache.SizeBytes = 8 * 1024
	variant.Down[0].CycleNS = 50
	checkReplay(t, "unified", variant, a, warmup, log)
}

// TestReplayWarmupEdges: no warm-up at all, and warm-up longer than the
// trace (recording never starts).
func TestReplayWarmupEdges(t *testing.T) {
	a := onepassArena(t, 20_000)
	base := onepassBase()
	for name, warmup := range map[string]int64{"no warmup": 0, "warmup beyond trace": 1_000_000} {
		log, _ := capture(t, base, a, warmup)
		variant := onepassBase()
		variant.Down[0].Cache.SizeBytes = 8 * 1024
		checkReplay(t, name, variant, a, warmup, log)
	}
}

// TestReplayInterrupt: a firing interrupt stops the replay with its error.
func TestReplayInterrupt(t *testing.T) {
	a := onepassArena(t, 20_000)
	base := onepassBase()
	log, _ := capture(t, base, a, 0)
	if len(log.Events) == 0 {
		t.Fatal("no boundary events captured")
	}
	h := memsys.MustNew(base)
	want := errSentinel{}
	if _, err := h.ReplayDown(log, func() error { return want }); err != want {
		t.Fatalf("replay error = %v, want sentinel", err)
	}
}

type errSentinel struct{}

func (errSentinel) Error() string { return "interrupted" }

// Scripted replay: one replay per L2 configuration records its tag
// outcomes, and every timing variant plays them. A played replay must equal
// a full simulation or report memsys.ErrTagDiverged — never differ
// silently.

// recordTags replays log on cfg while recording the L2 tag script.
func recordTags(t *testing.T, cfg memsys.Config, log *memsys.DownLog) *memsys.TagScript {
	t.Helper()
	h := memsys.MustNew(cfg)
	if err := h.RecordTags(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ReplayDown(log, nil); err != nil {
		t.Fatal(err)
	}
	s := h.TagScript()
	if s == nil || s.Len() == 0 {
		t.Fatal("recorded an empty tag script")
	}
	return s
}

// checkPlayed plays script on cfg and compares against a full simulation.
func checkPlayed(t *testing.T, name string, cfg memsys.Config, a *trace.Arena, warmup int64, log *memsys.DownLog, script *memsys.TagScript) {
	t.Helper()
	h := memsys.MustNew(cfg)
	gotNS, err := h.PlayTags(log, script, nil)
	if err != nil {
		t.Fatalf("%s: play: %v", name, err)
	}
	checkFull(t, name, cfg, a, warmup, h, gotNS)
}

// timingVariants change only when the L2 is busy, not its configuration.
var timingVariants = map[string]func(*memsys.Config){
	"slow L2":         func(c *memsys.Config) { c.Down[0].CycleNS = 80 },
	"fast L2":         func(c *memsys.Config) { c.Down[0].CycleNS = 10 },
	"L2 write cycles": func(c *memsys.Config) { c.Down[0].WriteCycles = 3 },
	"deep buffers":    func(c *memsys.Config) { c.WBDepth = 8 },
	"shallow buffers": func(c *memsys.Config) { c.WBDepth = 1 },
	"slow memory":     func(c *memsys.Config) { c.Memory.ReadNS *= 4; c.Memory.WriteNS *= 4 },
	"narrow bus":      func(c *memsys.Config) { c.MemBusWidthBytes = 4 },
	"slow L3": func(c *memsys.Config) {
		c.Down = append(c.Down, memsys.LevelConfig{
			Cache: cache.Config{
				Name: "L3", SizeBytes: 1024 * 1024, BlockBytes: 64, Assoc: 1,
				Repl: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
			},
			CycleNS: 150,
		})
	},
}

// variant returns base with mutate applied to a private copy of Down.
func variant(base memsys.Config, mutate func(*memsys.Config)) memsys.Config {
	cfg := base
	cfg.Down = append([]memsys.LevelConfig(nil), base.Down...)
	mutate(&cfg)
	return cfg
}

// TestPlayTagsAcrossTimingVariants: the split write-back base machine
// never diverges, so one script serves every timing variant exactly.
func TestPlayTagsAcrossTimingVariants(t *testing.T) {
	a := onepassArena(t, 80_000)
	base := onepassBase()
	const warmup = 16_000
	log, _ := capture(t, base, a, warmup)
	script := recordTags(t, base, log)
	checkPlayed(t, "pivot", base, a, warmup, log, script)
	for name, mutate := range timingVariants {
		checkPlayed(t, name, variant(base, mutate), a, warmup, log, script)
	}
}

// TestTagScriptFromCapture: the capture run records the same script as a
// replay of the same configuration, so a capturing pivot can serve as its
// own tag pivot.
func TestTagScriptFromCapture(t *testing.T) {
	a := onepassArena(t, 40_000)
	cfg := onepassBase()
	h := memsys.MustNew(cfg)
	rec := memsys.NewDownRecorder()
	h.SetTap(rec)
	if err := h.RecordTags(); err != nil {
		t.Fatal(err)
	}
	res, err := cpu.Run(h, a.Cursor(), cpu.Config{CycleNS: cfg.CPUCycleNS, WarmupRefs: 8_000, OnRecordingStart: rec.MarkRecordingStart})
	if err != nil {
		t.Fatal(err)
	}
	log := rec.Finish(res.TimeNS)
	if got, want := h.TagScript(), recordTags(t, cfg, log); !reflect.DeepEqual(got, want) {
		t.Fatalf("capture recorded %d ops (flip %d), replay %d ops (flip %d)", got.Len(), got.FlipOp(), want.Len(), want.FlipOp())
	}
}

// TestPlayTagsDiverges: a write-through L1D, a unified L1 and an unbuffered
// member reorder the L2's reads and writes; each must be caught.
func TestPlayTagsDiverges(t *testing.T) {
	a := onepassArena(t, 150_000)
	const warmup = 30_000
	wt := onepassBase()
	wt.L1D.Cache.Write = cache.WriteThrough
	wt.L1D.Cache.Alloc = cache.NoWriteAllocate
	unified := onepassBase()
	unified.SplitL1 = false
	unified.L1 = unified.L1I
	unified.L1.Cache.Name = "L1"
	unified.L1.Cache.SizeBytes = 4 * 1024
	unified.L1I, unified.L1D = memsys.LevelConfig{}, memsys.LevelConfig{}
	// The unbuffered member writes the same blocks in the same order; it
	// departs only where a write is still buffered in the pivot, at the
	// warm-up flip and at the end, so only the final check can see it.
	cases := []struct {
		name   string
		pivot  memsys.Config
		mutate func(*memsys.Config)
		early  bool // departs well before the end of the log
	}{
		{"write-through L1D", wt, func(c *memsys.Config) { c.Down[0].CycleNS = 100 }, true},
		{"unified L1", unified, func(c *memsys.Config) { c.Down[0].CycleNS = 100 }, true},
		{"no buffers", onepassBase(), func(c *memsys.Config) { c.WBDepth = -1 }, false},
	}
	for _, tc := range cases {
		log, _ := capture(t, tc.pivot, a, warmup)
		script := recordTags(t, tc.pivot, log)
		h := memsys.MustNew(variant(tc.pivot, tc.mutate))
		// The replay stops at the first poll after it departs, not at the
		// end of the log: a diverging member costs a partial replay.
		polls := 0
		if _, err := h.PlayTags(log, script, func() error { polls++; return nil }); !errors.Is(err, memsys.ErrTagDiverged) {
			t.Errorf("%s: play returned %v, want ErrTagDiverged", tc.name, err)
		}
		if full := (len(log.Events) + 4095) / 4096; tc.early && polls >= full {
			t.Errorf("%s: diverging play polled %d times, as often as a whole replay", tc.name, polls)
		}
		// The demoted member replays exactly through its own tag array.
		h.Reset()
		gotNS, err := h.ReplayDown(log, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkFull(t, tc.name, variant(tc.pivot, tc.mutate), a, warmup, h, gotNS)
	}
}

// TestPlayTagsRejectsOtherConfig: a script recorded on another L2
// configuration would pass the rail and answer wrongly, so PlayTags refuses
// it outright; coalescing write buffers are never scripted.
func TestPlayTagsRejectsOtherConfig(t *testing.T) {
	a := onepassArena(t, 20_000)
	base := onepassBase()
	log, _ := capture(t, base, a, 0)
	script := recordTags(t, base, log)
	for name, mutate := range map[string]func(*memsys.Config){
		"smaller L2": func(c *memsys.Config) { c.Down[0].Cache.SizeBytes = 16 * 1024 },
		"2-way L2":   func(c *memsys.Config) { c.Down[0].Cache.Assoc = 2 },
		"FIFO L2":    func(c *memsys.Config) { c.Down[0].Cache.Repl = cache.FIFO },
		"coalescing": func(c *memsys.Config) { c.WBCoalesce = true },
	} {
		cfg := variant(base, mutate)
		_, err := memsys.MustNew(cfg).PlayTags(log, script, nil)
		if err == nil || errors.Is(err, memsys.ErrTagDiverged) {
			t.Errorf("%s: play returned %v, want a configuration error", name, err)
		}
	}
	coalescing := variant(base, func(c *memsys.Config) { c.WBCoalesce = true })
	if memsys.Scriptable(coalescing) {
		t.Error("coalescing configuration reported scriptable")
	}
	if err := memsys.MustNew(coalescing).RecordTags(); err == nil {
		t.Error("coalescing configuration recorded a tag script")
	}
}

// TestPlayTagsDetectsShiftedFlip: the same operations with statistics
// turning on one operation early or late would report other L2 counts.
func TestPlayTagsDetectsShiftedFlip(t *testing.T) {
	a := onepassArena(t, 30_000)
	base := onepassBase()
	const warmup = 6_000
	log, _ := capture(t, base, a, warmup)
	script := recordTags(t, base, log)
	slow := variant(base, timingVariants["slow L2"])
	for _, d := range []int{-1, 1} {
		if _, err := memsys.MustNew(slow).PlayTags(log, memsys.ShiftFlip(script, d), nil); !errors.Is(err, memsys.ErrTagDiverged) {
			t.Errorf("flip shifted by %d: play returned %v, want ErrTagDiverged", d, err)
		}
	}
	checkPlayed(t, "unshifted", slow, a, warmup, log, script)
}

// TestPlayTagsDetectsLeftoverOps: a replay that ends before the script's
// last operation would report the tag pivot's statistics for operations it
// never made.
func TestPlayTagsDetectsLeftoverOps(t *testing.T) {
	a := onepassArena(t, 20_000)
	base := onepassBase()
	log, _ := capture(t, base, a, 4_000)
	script := recordTags(t, base, log)
	if _, err := memsys.MustNew(base).PlayTags(log, memsys.WithExtraOp(script), nil); !errors.Is(err, memsys.ErrTagDiverged) {
		t.Errorf("play with a leftover operation returned %v, want ErrTagDiverged", err)
	}
}

// TestPlayedStateClearedByReset: a hierarchy that played a script, or was
// left recording one, and is then Reset or re-purposed by ResetFor
// simulates through its own tag array again and holds no script. The
// second run replays another log (no warm-up), whose L2 statistics differ
// from the script's.
func TestPlayedStateClearedByReset(t *testing.T) {
	a := onepassArena(t, 30_000)
	base := onepassBase()
	log, _ := capture(t, base, a, 6_000)
	script := recordTags(t, base, log)
	cold, _ := capture(t, base, a, 0)
	slow := variant(base, timingVariants["slow L2"])
	for name, reuse := range map[string]func(h *memsys.Hierarchy) error{
		"Reset":    func(h *memsys.Hierarchy) error { h.Reset(); return nil },
		"ResetFor": func(h *memsys.Hierarchy) error { return h.ResetFor(slow) },
	} {
		h := memsys.MustNew(slow)
		if _, err := h.PlayTags(log, script, nil); err != nil {
			t.Fatalf("%s: play: %v", name, err)
		}
		if err := reuse(h); err != nil {
			t.Fatalf("%s: reuse refused: %v", name, err)
		}
		gotNS, err := h.ReplayDown(cold, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkFull(t, name+" after play", slow, a, 0, h, gotNS)

		if err := h.RecordTags(); err != nil {
			t.Fatal(err)
		}
		if err := reuse(h); err != nil {
			t.Fatalf("%s: reuse refused: %v", name, err)
		}
		if s := h.TagScript(); s != nil {
			t.Errorf("%s: hierarchy still recording a %d-op script", name, s.Len())
		}
	}
}

// TestPlayTagsWarmupEdges: recording on from the first operation, and
// never on at all.
func TestPlayTagsWarmupEdges(t *testing.T) {
	a := onepassArena(t, 20_000)
	base := onepassBase()
	for name, tc := range map[string]struct {
		warmup int64
		flipOp int
	}{"no warmup": {0, 0}, "warmup beyond trace": {1_000_000, -1}} {
		log, _ := capture(t, base, a, tc.warmup)
		script := recordTags(t, base, log)
		if script.FlipOp() != tc.flipOp {
			t.Errorf("%s: flip at op %d, want %d", name, script.FlipOp(), tc.flipOp)
		}
		checkPlayed(t, name, variant(base, timingVariants["slow L2"]), a, tc.warmup, log, script)
	}
}

// FuzzScriptedReplay: over short random traces, a random L2 timing variant
// playing a tag pivot's script equals its full simulation or reports
// ErrTagDiverged. Pivot and member share the first level (split or
// unified, write-back or write-through) and the L2 cache.Config.
func FuzzScriptedReplay(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(uint64(0x5eed), []byte{255, 17, 3, 200, 9, 64, 128, 31})
	f.Fuzz(func(t *testing.T, knobs uint64, raw []byte) {
		if len(raw) < 2 || len(raw) > 4096 {
			return
		}
		refs := make([]trace.Ref, 0, 4*len(raw))
		for i := 0; i+1 < len(raw); i++ {
			b, c := raw[i], raw[i+1]
			addr := uint64(b)<<7 | uint64(c&7)<<4
			refs = append(refs,
				trace.Ref{Kind: trace.IFetch, Addr: 1<<20 + uint64(i%64)*4},
				trace.Ref{Kind: trace.Kind(1 + c%2), Addr: addr})
		}
		a := trace.NewArena(refs)
		pick := func(n uint64) uint64 { v := knobs % n; knobs /= n; return v }

		pivot := onepassBase()
		pivot.L1I.Cache.SizeBytes = 256
		pivot.L1D.Cache.SizeBytes = 256
		pivot.Down[0].Cache.SizeBytes = 2048 << pick(3)
		if pick(2) == 1 {
			pivot.L1D.Cache.Write = cache.WriteThrough
			pivot.L1D.Cache.Alloc = cache.NoWriteAllocate
		}
		if pick(2) == 1 {
			pivot.SplitL1 = false
			pivot.L1 = pivot.L1D
			pivot.L1.Cache.Name = "L1"
			pivot.L1I, pivot.L1D = memsys.LevelConfig{}, memsys.LevelConfig{}
		}
		depths := []int{-1, 1, 4, 8}
		member := variant(pivot, func(c *memsys.Config) {
			c.Down[0].CycleNS = 10 * int64(1+pick(10))
			c.Down[0].WriteCycles = int(pick(4))
			c.WBDepth = depths[pick(4)]
			c.Memory.ReadNS += 40 * int64(pick(4))
			c.MemBusWidthBytes = 4 << pick(3)
			if pick(2) == 1 {
				c.Down = append(c.Down, memsys.LevelConfig{
					Cache: cache.Config{
						Name: "L3", SizeBytes: 16 * 1024, BlockBytes: 64, Assoc: 2,
						Repl: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
					},
					CycleNS: 40 + 10*int64(pick(8)),
				})
			}
		})
		warmup := int64(pick(3)) * int64(len(refs)) / 4

		log, _ := capture(t, pivot, a, warmup)
		tagPivot := memsys.MustNew(pivot)
		if err := tagPivot.RecordTags(); err != nil {
			t.Fatal(err)
		}
		if _, err := tagPivot.ReplayDown(log, nil); err != nil {
			t.Fatal(err)
		}
		s := tagPivot.TagScript()
		h := memsys.MustNew(member)
		gotNS, err := h.PlayTags(log, s, nil)
		switch {
		case errors.Is(err, memsys.ErrTagDiverged):
		case err != nil:
			t.Fatalf("play: %v", err)
		default:
			checkFull(t, "played", member, a, warmup, h, gotNS)
		}

		coalescing := variant(member, func(c *memsys.Config) { c.WBCoalesce = true })
		if memsys.Scriptable(coalescing) || memsys.MustNew(coalescing).RecordTags() == nil {
			t.Fatal("coalescing configuration is scriptable")
		}
		if _, err := memsys.MustNew(coalescing).PlayTags(log, s, nil); err == nil || errors.Is(err, memsys.ErrTagDiverged) {
			t.Fatalf("coalescing member played a script: %v", err)
		}
	})
}
