package experiments

import (
	"strings"
	"testing"

	"mlcache/internal/mainmem"
	"mlcache/internal/sweep"
)

// Test options: small enough for the suite, large enough for the
// qualitative shapes to hold.
func testOptions() Options {
	return Options{Seed: 1, Refs: 150_000, Warmup: 30_000}
}

func smallGrid() sweep.Grid {
	return sweep.Grid{
		SizesBytes: sweep.SizesPow2(16, 256),
		CyclesNS:   sweep.CyclesRange(1, 6, CPUCycleNS),
	}
}

func TestBaseMachineValid(t *testing.T) {
	cfg := BaseMachine(4, L2Config(512*1024, 30, 1), mainmem.Base())
	if err := cfg.Validate(); err != nil {
		t.Fatalf("base machine invalid: %v", err)
	}
	if !cfg.SplitL1 || cfg.L1I.Cache.SizeBytes != 2048 {
		t.Errorf("L1 = %+v", cfg.L1I.Cache)
	}
	if cfg.Down[0].CycleNS != 30 || cfg.Down[0].Cache.BlockBytes != 32 {
		t.Errorf("L2 = %+v", cfg.Down[0])
	}
	solo := SoloMachine(L2Config(64*1024, 30, 1), mainmem.Base())
	if err := solo.Validate(); err != nil {
		t.Fatalf("solo machine invalid: %v", err)
	}
	if solo.SplitL1 || len(solo.Down) != 0 {
		t.Error("solo machine has extra levels")
	}
}

func TestMissRatiosShape(t *testing.T) {
	sizes := sweep.SizesPow2(16, 512)
	res, err := MissRatios(4, sizes, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(sizes) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(sizes))
	}
	if res.L1GlobalMiss <= 0.02 || res.L1GlobalMiss > 0.2 {
		t.Errorf("L1 global miss = %v, want near 0.08", res.L1GlobalMiss)
	}
	for i, row := range res.Rows {
		// Local ≫ global: the L1 filters references but not misses (§3).
		if row.Local <= row.Global {
			t.Errorf("size %d: local %.4f <= global %.4f", row.L2SizeBytes, row.Local, row.Global)
		}
		if row.Global <= 0 || row.Solo <= 0 {
			t.Errorf("size %d: zero ratios", row.L2SizeBytes)
		}
		// Solo decreases with size.
		if i > 0 && row.Solo > res.Rows[i-1].Solo {
			t.Errorf("solo not decreasing at %d", row.L2SizeBytes)
		}
	}
	// Independence of layers: for L2 >= 32x the L1, global ≈ solo.
	last := res.Rows[len(res.Rows)-1]
	ratio := last.Global / last.Solo
	if ratio < 0.8 || ratio > 1.2 {
		t.Errorf("global/solo at %dKB = %.3f, want ≈ 1 (layer independence)", last.L2SizeBytes/1024, ratio)
	}
}

// TestMissRatiosL1Independence: the defining claim of §3 — the L2 *global*
// miss ratio barely moves when the L1 grows, while the *local* ratio moves
// a lot.
func TestMissRatiosL1Independence(t *testing.T) {
	sizes := []int64{512 * 1024}
	small, err := MissRatios(4, sizes, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	big, err := MissRatios(32, sizes, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	gs, gb := small.Rows[0].Global, big.Rows[0].Global
	ls, lb := small.Rows[0].Local, big.Rows[0].Local
	if gb > gs*1.4 || gb < gs*0.6 {
		t.Errorf("global moved too much with L1 size: %.4f -> %.4f", gs, gb)
	}
	if lb < ls*1.5 {
		t.Errorf("local did not rise with bigger L1: %.4f -> %.4f", ls, lb)
	}
}

func TestSpeedSizeSurface(t *testing.T) {
	res, err := NewContext(testOptions()).Surface(4, 1, mainmem.Base(), smallGrid())
	if err != nil {
		t.Fatal(err)
	}
	if res.L1GlobalMiss <= 0 {
		t.Error("missing L1 miss ratio")
	}
	for i := range res.Rel {
		for j := 1; j < len(res.Rel[i]); j++ {
			// Monotone in cycle time.
			if res.Rel[i][j] < res.Rel[i][j-1] {
				t.Errorf("rel time fell with slower L2 at size %d: %v", i, res.Rel[i])
			}
		}
	}
	// At fixed cycle time, the largest cache beats the smallest.
	last := len(res.Rel) - 1
	if res.Rel[last][0] >= res.Rel[0][0] {
		t.Errorf("bigger L2 not faster: %v vs %v", res.Rel[last][0], res.Rel[0][0])
	}
	// Relative time is ≥ 1 by construction.
	if res.Rel[last][0] < 1 {
		t.Errorf("relative time below 1: %v", res.Rel[last][0])
	}
}

// TestSlowMemorySteepensSlopes: doubling the memory time increases the L2
// miss penalty, which increases the slopes of the lines of constant
// performance (§4, Figure 4-4).
func TestSlowMemorySteepensSlopes(t *testing.T) {
	ctx := NewContext(testOptions())
	base, err := ctx.Surface(4, 1, mainmem.Base(), smallGrid())
	if err != nil {
		t.Fatal(err)
	}
	slow, err := ctx.Surface(4, 1, mainmem.Slow(), smallGrid())
	if err != nil {
		t.Fatal(err)
	}
	fb, fs := base.ContourGrid().SlopeField(), slow.ContourGrid().SlopeField()
	// Compare mean slope over the field.
	mean := func(f [][]float64) float64 {
		var sum float64
		var n int
		for i := range f {
			for _, v := range f[i] {
				sum += v
				n++
			}
		}
		return sum / float64(n)
	}
	if mean(fs) <= mean(fb) {
		t.Errorf("slow memory mean slope %.2f not steeper than base %.2f", mean(fs), mean(fb))
	}
}

func TestContextMemoizes(t *testing.T) {
	ctx := NewContext(testOptions())
	a, err := ctx.Surface(4, 1, mainmem.Base(), smallGrid())
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.Surface(4, 1, mainmem.Base(), smallGrid())
	if err != nil {
		t.Fatal(err)
	}
	if &a.Rel[0][0] != &b.Rel[0][0] {
		t.Error("surface not memoized")
	}
	m1, err := ctx.MissRatios(4)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := ctx.MissRatios(4)
	if err != nil {
		t.Fatal(err)
	}
	if &m1.Rows[0] != &m2.Rows[0] {
		t.Error("miss curve not memoized")
	}
}

func TestBreakEvenPositiveAndOrdered(t *testing.T) {
	ctx := NewContext(testOptions())
	grid := sweep.Grid{
		SizesBytes: sweep.SizesPow2(16, 128),
		CyclesNS:   sweep.CyclesRange(2, 5, CPUCycleNS),
	}
	be2, err := ctx.BreakEven(4, 2, grid)
	if err != nil {
		t.Fatal(err)
	}
	be8, err := ctx.BreakEven(4, 8, grid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.BreakEven(4, 1, grid); err == nil {
		t.Error("set size 1 accepted")
	}
	pos2, pos8 := 0, 0
	total := 0
	var sum2, sum8 float64
	for i := range be2.BreakEvenNS {
		for j := range be2.BreakEvenNS[i] {
			total++
			if be2.BreakEvenNS[i][j] > 0 {
				pos2++
			}
			if be8.BreakEvenNS[i][j] > 0 {
				pos8++
			}
			sum2 += be2.BreakEvenNS[i][j]
			sum8 += be8.BreakEvenNS[i][j]
		}
	}
	// Associativity reduces misses, so break-even times are positive for
	// the bulk of the space.
	if pos2 < total*3/4 || pos8 < total*3/4 {
		t.Errorf("positive break-evens: 2-way %d/%d, 8-way %d/%d", pos2, total, pos8, total)
	}
	// Cumulative: 8-way buys at least as much as 2-way overall.
	if sum8 < sum2 {
		t.Errorf("8-way cumulative (%.1f) below 2-way (%.1f)", sum8, sum2)
	}
	if be2.MeanBreakEvenNS() <= 0 {
		t.Errorf("mean break-even = %v", be2.MeanBreakEvenNS())
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 20 {
		t.Fatalf("experiments = %d, want 20", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := ByID("3-1"); !ok {
		t.Error("ByID(3-1) failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) succeeded")
	}
	if len(IDs()) != 20 {
		t.Errorf("IDs = %v", IDs())
	}
}

// TestRenderedExperimentsSmoke runs the cheap renderers end to end on a
// shared context and sanity-checks the output text.
func TestRenderedExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("rendering smoke test is slow")
	}
	ctx := NewContext(Options{Seed: 1, Refs: 80_000, Warmup: 16_000})
	for _, id := range []string{"3-1"} {
		e, _ := ByID(id)
		var sb strings.Builder
		if err := e.Run(ctx, &sb); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out := sb.String()
		if !strings.Contains(out, "miss") || len(out) < 200 {
			t.Errorf("%s: suspicious output:\n%s", id, out)
		}
	}
	// Render helpers on synthetic results.
	var sb strings.Builder
	res, err := ctx.Surface(4, 1, mainmem.Base(), smallGrid())
	if err != nil {
		t.Fatal(err)
	}
	if err := RenderSpeedSize(&sb, res); err != nil {
		t.Fatal(err)
	}
	if err := RenderContours(&sb, res, "base memory"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Slope regions") {
		t.Error("contour rendering missing region map")
	}
	d := DerivedResult{SoloDoublingFactor: 0.7, InvML1: 12}
	if err := RenderDerived(&sb, d); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "1/M_L1") {
		t.Error("derived rendering incomplete")
	}
}

// TestMissRatiosL1GlobalMiss: M_L1, the first level's global read miss ratio
// that the Figure 3 curves report, falls as the L1 grows.
func TestMissRatiosL1GlobalMiss(t *testing.T) {
	ctx := NewContext(testOptions())
	r4, err := ctx.MissRatios(4)
	if err != nil {
		t.Fatal(err)
	}
	r32, err := ctx.MissRatios(32)
	if err != nil {
		t.Fatal(err)
	}
	m4, m32 := r4.L1GlobalMiss, r32.L1GlobalMiss
	if m32 >= m4 {
		t.Errorf("32KB L1 miss (%.4f) not below 4KB (%.4f)", m32, m4)
	}
	// Paper: each L1 doubling cuts the miss ratio ~28%; 3 doublings ≈
	// 0.72³ ≈ 0.37. Allow a wide band.
	frac := m32 / m4
	if frac < 0.15 || frac > 0.7 {
		t.Errorf("32KB/4KB miss fraction = %.3f, want ≈ 0.37", frac)
	}
}

func TestModelCheck(t *testing.T) {
	ctx := NewContext(testOptions())
	res, err := ModelCheck(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Predicted) != len(res.Measured) {
		t.Fatalf("shape mismatch")
	}
	// Equation 1 with measured inputs tracks the simulation closely and,
	// more importantly, ranks design points almost identically — the
	// paper's use of the model.
	if res.MeanAbsErr > 0.25 {
		t.Errorf("mean model error %.1f%%, want < 25%%", 100*res.MeanAbsErr)
	}
	if res.RankAgreement < 0.95 {
		t.Errorf("rank agreement %.1f%%, want > 95%%", 100*res.RankAgreement)
	}
	var sb strings.Builder
	if err := RenderModelCheck(&sb, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "rank agreement") {
		t.Error("render incomplete")
	}
}

func TestModelCheckBiasDirection(t *testing.T) {
	ctx := NewContext(testOptions())
	res, err := ModelCheck(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Equation 1 omits contention, so it must underestimate on average.
	if res.MeanBias > 0.02 {
		t.Errorf("model overestimates (bias %+.1f%%); expected underestimate", 100*res.MeanBias)
	}
}
