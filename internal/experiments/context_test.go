package experiments

import (
	"io"
	"reflect"
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
	alone := []func(Options) (AblationResult, error){
		AblateWriteBuffers, AblateWritePolicy, AblateL2Block, AblatePrefetch,
		AblateThirdLevel, AblateFlushOnSwitch, AblatePageModeDRAM, AblateTLB,
	}
	studies := ablationStudies()
	if len(studies) != len(alone) {
		t.Fatalf("%d studies, %d Ablate functions", len(studies), len(alone))
	}
	before := generations.Load()
	for i, s := range studies {
		got, err := ctx.ablation(s.title)
		if err != nil {
			t.Fatal(err)
		}
		want, err := alone[i](opt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Title != want.Title || !reflect.DeepEqual(withoutDiagnostics(got.Rows), withoutDiagnostics(want.Rows)) {
			t.Errorf("study %q: memoized table differs from its Ablate run:\n%+v\nwant\n%+v", s.title, got, want)
		}
	}
	// One generation for the Context's sweep, one per Ablate run.
	if n := generations.Load() - before; n != int64(1+len(alone)) {
		t.Errorf("%d trace generations, want %d", n, 1+len(alone))
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
	want, err := SpeedSize(4, 1, mainmem.Base(), sub, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
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
		want, err := SpeedSize(4, req.assoc, req.mem, req.grid, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d-way %+v on %v: memo answered\n%+v\nwant\n%+v", req.assoc, req.mem, req.grid, got, want)
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
		want, err := SpeedSize(8, assoc, mainmem.Base(), g, opt)
		if err != nil {
			t.Fatal(err)
		}
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
			t.Errorf("%d-way surface of the pair differs from SpeedSize", assoc)
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
