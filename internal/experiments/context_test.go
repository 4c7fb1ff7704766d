package experiments

import (
	"io"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"mlcache/internal/cpu"
	"mlcache/internal/mainmem"
	"mlcache/internal/sweep"
)

// memoOptions keeps the memo tests quick; they compare exact numbers, so
// the workload's shape does not matter.
func memoOptions() Options {
	return Options{Seed: 1, Refs: 40_000, Warmup: 8_000, Parallelism: 2}
}

// surfaceAlone computes one surface over its own trace.
func surfaceAlone(t *testing.T, opt Options, l1TotalKB, assoc int, mem mainmem.Config, grid sweep.Grid) SpeedSizeResult {
	t.Helper()
	arena, err := opt.arena()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := speedSizes(arena, []surfaceSpec{{surfaceKey{l1TotalKB, assoc, mem}, grid}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	return rs[0]
}

// withoutDiagnostics clears what a replayed row lacks: which rows of a
// table are replays depends on the other configurations in its sweep.
func withoutDiagnostics(rows []AblationRow) []AblationRow {
	out := make([]AblationRow, len(rows))
	for i, r := range rows {
		r.Run.PerPID, r.Run.StallHist = nil, [len(cpu.Result{}.StallHist)]int64{}
		out[i] = r
	}
	return out
}

// TestMemoizedAblationsMatchAlone: each table the Context computes in its
// one sweep of every study equals the study run alone on its own trace.
func TestMemoizedAblationsMatchAlone(t *testing.T) {
	opt := memoOptions()
	ctx := NewContext(opt)
	studies := ablationStudies()
	if len(studies) != 8 {
		t.Fatalf("%d studies, want 8", len(studies))
	}
	before := generations.Load()
	for _, s := range studies {
		got, err := ctx.ablation(s.title)
		if err != nil {
			t.Fatal(err)
		}
		want := studyAlone(t, opt, s)
		if got.Title != want.Title || !reflect.DeepEqual(withoutDiagnostics(got.Rows), withoutDiagnostics(want.Rows)) {
			t.Errorf("study %q: memoized table differs from the study alone:\n%+v\nwant\n%+v", s.title, got, want)
		}
	}
	// One generation for the Context's sweep, one per study alone.
	if n := generations.Load() - before; n != int64(1+len(studies)) {
		t.Errorf("%d trace generations, want %d", n, 1+len(studies))
	}
	if _, err := ctx.ablation("no such study"); err == nil {
		t.Error("unknown study title accepted")
	}
}

// TestSubGridSurfaceMatchesSpeedSize: a request that a memoized surface
// covers is answered from it, without a trace, and equals a direct sweep.
func TestSubGridSurfaceMatchesSpeedSize(t *testing.T) {
	opt := memoOptions()
	ctx := NewContext(opt)
	if _, err := ctx.Surface(4, 1, mainmem.Base(), smallGrid()); err != nil {
		t.Fatal(err)
	}
	sub := sweep.Grid{
		SizesBytes: sweep.SizesPow2(32, 128),
		CyclesNS:   []int64{2 * CPUCycleNS, 4 * CPUCycleNS, 5 * CPUCycleNS},
	}
	before := generations.Load()
	got, err := ctx.Surface(4, 1, mainmem.Base(), sub)
	if err != nil {
		t.Fatal(err)
	}
	if n := generations.Load() - before; n != 0 {
		t.Errorf("sub-grid request generated the trace %d times", n)
	}
	if want := surfaceAlone(t, opt, 4, 1, mainmem.Base(), sub); !reflect.DeepEqual(got, want) {
		t.Errorf("sub-grid surface\n%+v\nwant\n%+v", got, want)
	}
	// A point outside the memoized grid, another set size or another
	// memory needs a sweep of its own.
	for _, req := range []struct {
		assoc int
		mem   mainmem.Config
		grid  sweep.Grid
	}{
		{1, mainmem.Base(), sweep.Grid{SizesBytes: sweep.SizesPow2(128, 512), CyclesNS: sub.CyclesNS}},
		{1, mainmem.Base(), sweep.Grid{SizesBytes: sub.SizesBytes, CyclesNS: []int64{7 * CPUCycleNS}}},
		{2, mainmem.Base(), sub},
		{1, mainmem.Slow(), sub},
	} {
		before := generations.Load()
		got, err := ctx.Surface(4, req.assoc, req.mem, req.grid)
		if err != nil {
			t.Fatal(err)
		}
		if n := generations.Load() - before; n != 1 {
			t.Errorf("%d-way %+v on %v: %d trace generations, want 1", req.assoc, req.mem, req.grid, n)
		}
		if want := surfaceAlone(t, opt, 4, req.assoc, req.mem, req.grid); !reflect.DeepEqual(got, want) {
			t.Errorf("%d-way %+v on %v: memo answered\n%+v\nwant\n%+v", req.assoc, req.mem, req.grid, got, want)
		}
	}
	// Specs of two L1 sizes in one request share one generation, and each
	// equals its spec computed on a fresh Context.
	specs := []surfaceSpec{
		{surfaceKey{2, 1, mainmem.Base()}, sub},
		{surfaceKey{16, 2, mainmem.Slow()}, sub},
	}
	before = generations.Load()
	rs, err := ctx.surfacesFor(specs)
	if err != nil {
		t.Fatal(err)
	}
	if n := generations.Load() - before; n != 1 {
		t.Errorf("two L1 sizes in one request: %d trace generations, want 1", n)
	}
	for k, sp := range specs {
		want, err := NewContext(opt).Surface(sp.l1TotalKB, sp.assoc, sp.mem, sp.grid)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rs[k], want) {
			t.Errorf("%d KB L1 in a mixed request\n%+v\nwant\n%+v", sp.l1TotalKB, rs[k], want)
		}
	}
}

// TestBreakEvenPairMatchesSeparateSurfaces: BreakEven's two surfaces,
// computed in one sweep, equal the surfaces computed one by one, and so
// does the break-even table.
func TestBreakEvenPairMatchesSeparateSurfaces(t *testing.T) {
	opt := memoOptions()
	grid := sweep.Grid{
		SizesBytes: sweep.SizesPow2(16, 128),
		CyclesNS:   sweep.CyclesRange(2, 5, CPUCycleNS),
	}
	ext := sweep.Grid{SizesBytes: grid.SizesBytes, CyclesNS: extendCycles(grid.CyclesNS, 8)}

	pair := NewContext(opt)
	before := generations.Load()
	got, err := pair.BreakEven(8, 4, grid)
	if err != nil {
		t.Fatal(err)
	}
	if n := generations.Load() - before; n != 1 {
		t.Errorf("BreakEven generated the trace %d times, want 1", n)
	}

	separate := NewContext(opt)
	for _, assoc := range []int{1, 4} {
		g := grid
		if assoc > 1 {
			g = ext
		}
		want := surfaceAlone(t, opt, 8, assoc, mainmem.Base(), g)
		if _, err := separate.Surface(8, assoc, mainmem.Base(), g); err != nil {
			t.Fatal(err)
		}
		before := generations.Load()
		memo, err := pair.Surface(8, assoc, mainmem.Base(), g)
		if err != nil {
			t.Fatal(err)
		}
		if generations.Load() != before {
			t.Errorf("%d-way surface not memoized by BreakEven", assoc)
		}
		if !reflect.DeepEqual(memo, want) {
			t.Errorf("%d-way surface of the pair differs from the surface alone", assoc)
		}
	}
	want, err := separate.BreakEven(8, 4, grid)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("break-even from one sweep\n%+v\nwant\n%+v", got, want)
	}
}

// TestAllGenerationCount pins how many times one pass over All generates
// the trace: once for each Figure 3 curve, each of Figure 4's three
// surfaces, each of Figure 5's associative surfaces, derived's 8 KB-L1
// pair, the ablations and l1opt.
func TestAllGenerationCount(t *testing.T) {
	ctx := NewContext(Options{Seed: 1, Refs: 3_000, Warmup: 600, Parallelism: 2})
	before := generations.Load()
	for _, e := range All() {
		if err := e.Run(ctx, io.Discard); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
	}
	if n := generations.Load() - before; n != 11 {
		t.Errorf("one pass over All generated the trace %d times, want 11", n)
	}
}

// TestAllSimulationCount pins how many machines one pass over All
// simulates: 1,236. 3-2 after 3-1 takes 3-1's solo column, and l1opt reads
// its 4, 8 and 32 KB rows from 4-1's, derived's 8 KB-L1 and 4-3's
// surfaces; either equals its computation on a fresh Context.
func TestAllSimulationCount(t *testing.T) {
	opt := Options{Seed: 1, Refs: 3_000, Warmup: 600, Parallelism: 2}
	run := func(ctx *Context, ids ...string) int64 {
		t.Helper()
		before := simulations.Load()
		for _, id := range ids {
			e, _ := ByID(id)
			if err := e.Run(ctx, io.Discard); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
		}
		return simulations.Load() - before
	}
	if n := run(NewContext(opt), IDs()...); n != 1236 {
		t.Errorf("one pass over All simulated %d machines, want 1236", n)
	}
	ctx := NewContext(opt)
	run(ctx, "3-1")
	if n := run(ctx, "3-2"); n != 10 {
		t.Errorf("3-2 after 3-1 simulated %d machines, want its 10 two-level ones", n)
	}
	got, err := ctx.MissRatios(32)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := NewContext(opt).MissRatios(32); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("3-2 after 3-1\n%+v\nwant (%v)\n%+v", got, err, want)
	}
	ctx = NewContext(opt)
	run(ctx, slices.DeleteFunc(IDs(), func(id string) bool { return id == "l1opt" })...)
	if n := run(ctx, "l1opt"); n != 24 {
		t.Errorf("l1opt after the rest of All simulated %d machines, want 24", n)
	}
	l1, err := ctx.L1Size()
	if err != nil {
		t.Fatal(err)
	}
	if want, err := NewContext(opt).L1Size(); err != nil || !reflect.DeepEqual(l1, want) {
		t.Errorf("l1opt after the rest of All\n%+v\nwant (%v)\n%+v", l1, err, want)
	}
}

// TestContextConcurrentUse runs every experiment at once on one Context:
// each prints what it prints alone on a fresh one. Run with -race to
// check the memos' locking.
func TestContextConcurrentUse(t *testing.T) {
	opt := Options{Seed: 1, Refs: 3_000, Warmup: 600, Parallelism: 2}
	exps := All()
	want := make([]string, len(exps))
	for i, e := range exps {
		var b strings.Builder
		if err := e.Run(NewContext(opt), &b); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		want[i] = b.String()
	}
	ctx := NewContext(opt)
	var wg sync.WaitGroup
	for i, e := range exps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b strings.Builder
			if err := e.Run(ctx, &b); err != nil {
				t.Errorf("%s: %v", e.ID, err)
			} else if b.String() != want[i] {
				t.Errorf("%s on a shared Context:\n%s\nwant:\n%s", e.ID, b.String(), want[i])
			}
		}()
	}
	wg.Wait()
}
