package optimal

import (
	"strings"
	"sync"
	"testing"

	"mlcache/internal/cache"
	"mlcache/internal/cpu"
	"mlcache/internal/mainmem"
	"mlcache/internal/memsys"
	"mlcache/internal/synth"
	"mlcache/internal/trace"
)

func baseMachine() memsys.Config {
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
				Name: "L2", SizeBytes: 512 * 1024, BlockBytes: 32, Assoc: 1,
				Repl: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
			},
			CycleNS: 30,
		}},
		Memory: mainmem.Base(),
	}
}

func testTech() Technology {
	return Technology{
		BaseCycleNS:    20,
		RefSizeBytes:   64 * 1024,
		NSPerDoubling:  3,
		AssocPenaltyNS: 11,
		MinSizeBytes:   32 * 1024,
		MaxSizeBytes:   1024 * 1024,
		Assocs:         []int{1, 2},
	}
}

// testArena is the search workload, materialized once for the package.
var testArena = sync.OnceValue(func() *trace.Arena {
	arena, err := trace.Materialize(synth.PaperStream(1, 150_000))
	if err != nil {
		panic(err)
	}
	return arena
})

func testSearchConfig() Config {
	return Config{
		Base:  baseMachine(),
		Tech:  testTech(),
		Arena: testArena(),
		CPU:   cpu.Config{CycleNS: 10, WarmupRefs: 30_000},
	}
}

func TestTechnologyValidate(t *testing.T) {
	if err := testTech().Validate(); err != nil {
		t.Fatalf("valid tech rejected: %v", err)
	}
	cases := []func(*Technology){
		func(c *Technology) { c.BaseCycleNS = 0 },
		func(c *Technology) { c.RefSizeBytes = 0 },
		func(c *Technology) { c.NSPerDoubling = -1 },
		func(c *Technology) { c.AssocPenaltyNS = -1 },
		func(c *Technology) { c.MinSizeBytes = 0 },
		func(c *Technology) { c.MaxSizeBytes = 1 },
		func(c *Technology) { c.Assocs = []int{-2} },
	}
	for i, mutate := range cases {
		tech := testTech()
		mutate(&tech)
		if err := tech.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestTechnologyCycle(t *testing.T) {
	tech := testTech()
	// At the reference size, direct-mapped: the base cycle.
	if got := tech.CycleNS(64*1024, 1); got != 20 {
		t.Errorf("cycle at ref = %d, want 20", got)
	}
	// Two doublings: +6 ns.
	if got := tech.CycleNS(256*1024, 1); got != 26 {
		t.Errorf("cycle at 256KB = %d, want 26", got)
	}
	// Associativity: +11 ns.
	if got := tech.CycleNS(64*1024, 2); got != 31 {
		t.Errorf("2-way cycle = %d, want 31", got)
	}
	// Below the reference the cycle shrinks but never below 1.
	if got := tech.CycleNS(1, 1); got < 1 {
		t.Errorf("tiny cycle = %d", got)
	}
}

func TestSearchValidation(t *testing.T) {
	cfg := testSearchConfig()
	cfg.Tech.BaseCycleNS = 0
	if _, err := Search(cfg); err == nil {
		t.Error("bad tech accepted")
	}
	cfg = testSearchConfig()
	cfg.Base.Down = nil
	if _, err := Search(cfg); err == nil {
		t.Error("no-L2 base accepted")
	}
	cfg = testSearchConfig()
	cfg.Arena = nil
	if _, err := Search(cfg); err == nil {
		t.Error("missing trace accepted")
	}
	cfg = testSearchConfig()
	cfg.Arena = trace.NewArena(trace.Trace{{Kind: trace.Store}})
	if _, err := Search(cfg); err == nil {
		t.Error("read-free workload accepted")
	}
}

func TestSearchFindsReasonableOptimum(t *testing.T) {
	res, err := Search(testSearchConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 6 sizes x 2 assocs.
	if len(res.Candidates) != 12 {
		t.Fatalf("candidates = %d, want 12", len(res.Candidates))
	}
	if len(res.Simulated) != 12 {
		t.Fatalf("simulated = %d, want 12", len(res.Simulated))
	}
	if res.Best.MeasuredRel <= 1 {
		t.Errorf("best measured rel = %v, must exceed 1", res.Best.MeasuredRel)
	}
	if res.ML1 <= 0 || res.ML1 > 0.5 {
		t.Errorf("profiled ML1 = %v", res.ML1)
	}
	if res.MissModel.Alpha <= 0 {
		t.Errorf("no fitted miss model: %+v", res.MissModel)
	}
	// The measured winner is first in Simulated.
	for _, v := range res.Simulated[1:] {
		if v.MeasuredRel < res.Best.MeasuredRel {
			t.Errorf("Best is not the measured minimum")
		}
	}
}

// TestSearchRespondsToTechnology: with a free size (no per-doubling cost)
// the search picks a comfortably large cache; a punitive cost pins it to
// the minimum.
func TestSearchRespondsToTechnology(t *testing.T) {
	free := testSearchConfig()
	free.Tech.NSPerDoubling = 0
	free.Tech.Assocs = []int{1}
	resFree, err := Search(free)
	if err != nil {
		t.Fatal(err)
	}
	if resFree.Candidates[0].SizeBytes < 64*1024 {
		t.Errorf("free doubling: predicted best size %d, want >= 64KB",
			resFree.Candidates[0].SizeBytes)
	}
	// Nothing smaller than the winner predicts better, and the winner is
	// no slower (predicted) than the largest size.
	maxRel := 0.0
	for _, c := range resFree.Candidates {
		if c.SizeBytes == free.Tech.MaxSizeBytes {
			maxRel = c.PredictedRel
		}
	}
	if resFree.Candidates[0].PredictedRel > maxRel+1e-12 {
		t.Errorf("winner (%.6f) predicted worse than max size (%.6f)",
			resFree.Candidates[0].PredictedRel, maxRel)
	}

	punitive := testSearchConfig()
	punitive.Tech.NSPerDoubling = 40 // 4 CPU cycles per doubling
	punitive.Tech.Assocs = []int{1}
	resPun, err := Search(punitive)
	if err != nil {
		t.Fatal(err)
	}
	if resPun.Candidates[0].SizeBytes > 64*1024 {
		t.Errorf("punitive doubling: predicted best size %d, want small",
			resPun.Candidates[0].SizeBytes)
	}
	if resPun.Candidates[0].SizeBytes > resFree.Candidates[0].SizeBytes {
		t.Errorf("punitive optimum (%d) larger than free optimum (%d)",
			resPun.Candidates[0].SizeBytes, resFree.Candidates[0].SizeBytes)
	}
}

// TestSearchPrefersAssociativityWhenCheap: with a free mux, set-associative
// candidates dominate direct-mapped ones at equal size in the prediction.
func TestSearchPrefersAssociativityWhenCheap(t *testing.T) {
	cfg := testSearchConfig()
	cfg.Tech.AssocPenaltyNS = 0
	res, err := Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Candidates[0].Assoc != 2 {
		t.Errorf("free associativity: predicted best is %d-way, want 2-way", res.Candidates[0].Assoc)
	}
}

// TestPredictedMissIsExact: with the one-pass grid in play, a candidate's
// PredictedMiss is not a fudged estimate — it equals the measured miss
// ratio of a solo LRU cache of exactly that geometry fed the read stream.
func TestPredictedMissIsExact(t *testing.T) {
	cfg := testSearchConfig()
	res, err := Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, cand := range res.Candidates {
		c := cache.MustNew(cache.Config{
			Name: "solo", SizeBytes: cand.SizeBytes, BlockBytes: 32, Assoc: cand.Assoc,
			Repl: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
		})
		var reads int64
		for _, r := range cfg.Arena.Refs() {
			if r.Kind.IsRead() {
				c.Access(r.Addr, false)
				reads++
			}
		}
		want := float64(c.Stats().ReadMisses) / float64(reads)
		if cand.PredictedMiss != want {
			t.Errorf("%v: predicted miss %v, solo simulation %v", cand, cand.PredictedMiss, want)
		}
	}
}

func TestRender(t *testing.T) {
	res, err := Search(testSearchConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Render(&sb, res); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "best:") || !strings.Contains(out, "measured rel") {
		t.Errorf("render incomplete:\n%s", out)
	}
}

// TestBestIsBruteForceArgmin: the search simulates every candidate, each
// measurement equals a fresh per-candidate simulation, and Best is the
// minimum of those simulations, ties going to the smaller, then the less
// associative organization.
func TestBestIsBruteForceArgmin(t *testing.T) {
	fullyAssoc := testSearchConfig()
	fullyAssoc.Tech.Assocs = []int{0, 1}
	// A fully-associative cache probes every way, so keep its sizes small.
	fullyAssoc.Tech.MaxSizeBytes = 128 * 1024
	for name, cfg := range map[string]Config{"test space": testSearchConfig(), "fully associative": fullyAssoc} {
		res, err := Search(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Simulated) != len(res.Candidates) {
			t.Fatalf("%s: simulated %d of %d candidates", name, len(res.Simulated), len(res.Candidates))
		}
		var best Verified
		seen := map[Candidate]bool{}
		for i, v := range res.Simulated {
			if seen[v.Candidate] {
				t.Errorf("%s: %v simulated twice", name, v.Candidate)
			}
			seen[v.Candidate] = true
			mcfg := cfg.Base
			mcfg.Down = []memsys.LevelConfig{cfg.Base.Down[0]}
			mcfg.Down[0].Cache.SizeBytes = v.SizeBytes
			mcfg.Down[0].Cache.Assoc = v.Assoc
			mcfg.Down[0].CycleNS = v.CycleNS
			h, err := memsys.New(mcfg)
			if err != nil {
				t.Fatalf("%s: %v: %v", name, v.Candidate, err)
			}
			run, err := cpu.Run(h, cfg.Arena.Cursor(), cfg.CPU)
			if err != nil {
				t.Fatalf("%s: %v: %v", name, v.Candidate, err)
			}
			if v.MeasuredRel != run.RelTime || v.Run.TimeNS != run.TimeNS {
				t.Errorf("%s: %v measured rel %v (%d ns), simulated alone %v (%d ns)",
					name, v.Candidate, v.MeasuredRel, v.Run.TimeNS, run.RelTime, run.TimeNS)
			}
			c := v.Candidate
			if i == 0 || run.RelTime < best.MeasuredRel || run.RelTime == best.MeasuredRel &&
				(c.SizeBytes < best.SizeBytes || c.SizeBytes == best.SizeBytes && c.Assoc < best.Assoc) {
				best = Verified{Candidate: c, MeasuredRel: run.RelTime}
			}
		}
		if res.Best.Candidate != best.Candidate || res.Best.MeasuredRel != best.MeasuredRel {
			t.Errorf("%s: best %v (rel %v), brute-force minimum %v (rel %v)",
				name, res.Best.Candidate, res.Best.MeasuredRel, best.Candidate, best.MeasuredRel)
		}
	}
}

// TestSearchRejectsUnbuildableSpace: a candidate space holding a geometry
// no cache can be built with is refused with an error naming the value.
// The workload has no reads, so the profiling pass would fail with another
// error: a refusal naming the value came before that pass.
func TestSearchRejectsUnbuildableSpace(t *testing.T) {
	for _, tc := range []struct {
		mutate func(*Technology)
		want   string
	}{
		{func(tech *Technology) { tech.MinSizeBytes = 48 << 10 }, "minimum size 49152"},
		{func(tech *Technology) { tech.Assocs = []int{3} }, "set size 3"},
		// 32 bytes cannot hold two 32-byte blocks.
		{func(tech *Technology) { tech.MinSizeBytes = 32 }, "size 32 "},
	} {
		cfg := testSearchConfig()
		tc.mutate(&cfg.Tech)
		cfg.Arena = trace.NewArena(trace.Trace{{Kind: trace.Store}})
		if _, err := Search(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("got error %v, want one naming %q", err, tc.want)
		}
	}
}
