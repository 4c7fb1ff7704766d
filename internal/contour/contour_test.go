package contour

import (
	"math"
	"testing"
)

// analyticGrid builds a grid from the paper's execution-time model:
// Rel(size, cycle) = 1 + mL1·cycle·k + m(size)·penalty, which has exactly
// known contour structure.
func analyticGrid(ml1 float64) *Grid {
	sizes := []int64{}
	for kb := int64(8); kb <= 4096; kb *= 2 {
		sizes = append(sizes, kb*1024)
	}
	cycles := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	g := &Grid{SizesBytes: sizes, CyclesNS: cycles}
	miss := func(size float64) float64 { return 0.05 * math.Pow(size/(8*1024), -0.54) }
	for _, s := range sizes {
		var row []float64
		for _, c := range cycles {
			rel := 1 + ml1*float64(c)*0.09 + miss(float64(s))*30
			row = append(row, rel)
		}
		g.Rel = append(g.Rel, row)
	}
	return g
}

func TestValidate(t *testing.T) {
	g := analyticGrid(0.1)
	if err := g.Validate(); err != nil {
		t.Fatalf("valid grid rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Grid)
	}{
		{"too few sizes", func(g *Grid) { g.SizesBytes = g.SizesBytes[:1]; g.Rel = g.Rel[:1] }},
		{"row mismatch", func(g *Grid) { g.Rel = g.Rel[:2] }},
		{"col mismatch", func(g *Grid) { g.Rel[1] = g.Rel[1][:3] }},
		{"sizes unsorted", func(g *Grid) { g.SizesBytes[1] = g.SizesBytes[0] }},
		{"cycles unsorted", func(g *Grid) { g.CyclesNS[1] = g.CyclesNS[0] }},
	}
	for _, tc := range cases {
		g := analyticGrid(0.1)
		tc.mutate(g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestMinMaxAndLevels(t *testing.T) {
	g := analyticGrid(0.1)
	lo, hi := g.MinMax()
	if lo >= hi {
		t.Fatalf("MinMax = %v, %v", lo, hi)
	}
	levels := g.Levels(0.1)
	if len(levels) < 3 {
		t.Fatalf("levels = %v", levels)
	}
	for i, l := range levels {
		if l < lo-1e-9 || l > hi+1e-9 {
			t.Errorf("level %d = %v outside [%v,%v]", i, l, lo, hi)
		}
		if i > 0 && !(l > levels[i-1]) {
			t.Errorf("levels not ascending at %d", i)
		}
	}
}

// TestLineIsEquiPerformance: every interpolated point on a contour line
// evaluates (under the generating model) to the level.
func TestLineIsEquiPerformance(t *testing.T) {
	g := analyticGrid(0.1)
	miss := func(size float64) float64 { return 0.05 * math.Pow(size/(8*1024), -0.54) }
	for _, level := range g.Levels(0.1) {
		line := g.Line(level)
		for _, p := range line {
			rel := 1 + 0.1*p.CycleNS*0.09 + miss(p.SizeBytes)*30
			if math.Abs(rel-level) > 0.02 {
				t.Errorf("level %.2f: point (%v KB, %v ns) evaluates to %.4f", level, p.SizeBytes/1024, p.CycleNS, rel)
			}
		}
	}
}

// TestSlopesPositiveAndDecreasing: along a line of constant performance a
// bigger cache affords a slower cycle time (positive slope), and the
// affordance shrinks as the cache grows (the benefit of size saturates).
func TestSlopesPositiveAndDecreasing(t *testing.T) {
	g := analyticGrid(0.1)
	line := g.Line(2.0)
	if len(line) < 4 {
		t.Fatalf("line too short: %d points", len(line))
	}
	slopes := SlopesPerDoubling(line)
	for i, s := range slopes {
		if s <= 0 {
			t.Errorf("slope %d = %v, want positive", i, s)
		}
		if i > 0 && s > slopes[i-1]+1e-9 {
			t.Errorf("slopes not decreasing: %v", slopes)
		}
	}
}

// TestSmallerL1MakesContoursSteeper: the 1/M_L1 effect — with a lower L1
// miss ratio (bigger L1), the same L2 size change buys more cycle-time
// headroom... inversely: the slope scales with 1/mL1's effect on the cycle
// term. With smaller mL1 the cycle-time cost term shrinks, so slopes grow.
func TestSmallerL1MakesContoursSteeper(t *testing.T) {
	steep := analyticGrid(0.03) // big L1: low miss ratio
	flat := analyticGrid(0.30)  // small L1
	sSteep := SlopesPerDoubling(steep.Line(2.0))
	sFlat := SlopesPerDoubling(flat.Line(2.0))
	if len(sSteep) == 0 || len(sFlat) == 0 {
		t.Skip("contour lines out of range for one grid")
	}
	if sSteep[0] <= sFlat[0] {
		t.Errorf("slope with low mL1 (%v) not steeper than high mL1 (%v)", sSteep[0], sFlat[0])
	}
}

func TestSlopeField(t *testing.T) {
	g := analyticGrid(0.1)
	field := g.SlopeField()
	if len(field) != len(g.SizesBytes)-1 || len(field[0]) != len(g.CyclesNS)-1 {
		t.Fatalf("field shape %dx%d", len(field), len(field[0]))
	}
	for i := range field {
		for j, s := range field[i] {
			if s <= 0 {
				t.Errorf("slope field [%d][%d] = %v, want positive", i, j, s)
			}
		}
		// Slopes must not grow with size.
		if i > 0 && field[i][0] > field[i-1][0]+1e-9 {
			t.Errorf("slope field not decreasing in size at %d", i)
		}
	}
	// A cycle-insensitive surface yields +Inf.
	flat := &Grid{
		SizesBytes: []int64{1024, 2048},
		CyclesNS:   []int64{10, 20},
		Rel:        [][]float64{{2, 2}, {1, 1}},
	}
	if f := flat.SlopeField(); !math.IsInf(f[0][0], 1) {
		t.Errorf("flat surface slope = %v, want +Inf", f[0][0])
	}
}

func TestRegion(t *testing.T) {
	bounds := []float64{7.5, 15, 30}
	cases := []struct {
		slope float64
		want  int
	}{
		{0, 0}, {7.4, 0}, {7.5, 1}, {10, 1}, {15, 2}, {29, 2}, {30, 3}, {100, 3},
		{math.Inf(1), 3},
	}
	for _, c := range cases {
		if got := Region(c.slope, bounds); got != c.want {
			t.Errorf("Region(%v) = %d, want %d", c.slope, got, c.want)
		}
	}
}

// TestBoundaryShift: shifting the miss term right in size by a known
// factor shifts the slope structure by the same factor, regardless of any
// uniform speed difference between the machines.
func TestBoundaryShift(t *testing.T) {
	mk := func(scale, speedup float64) *Grid {
		sizes := []int64{}
		for kb := int64(8); kb <= 4096; kb *= 2 {
			sizes = append(sizes, kb*1024)
		}
		cycles := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
		g := &Grid{SizesBytes: sizes, CyclesNS: cycles}
		for _, s := range sizes {
			var row []float64
			for _, c := range cycles {
				miss := 0.05 * math.Pow(float64(s)/scale/(8*1024), -0.54)
				row = append(row, speedup*(1+0.009*float64(c)+miss*30))
			}
			g.Rel = append(g.Rel, row)
		}
		return g
	}
	a := mk(1, 1)
	// b: structure 4x right AND uniformly 2x faster — comparing levels
	// would be meaningless here, BoundaryShift is not.
	b := mk(4, 0.5)
	got := BoundaryShift(a, b, 10.0)
	if math.Abs(got-4) > 0.8 {
		t.Errorf("BoundaryShift = %v, want ≈ 4", got)
	}
	if got := BoundaryShift(a, mk(1, 1), 10.0); math.Abs(got-1) > 0.05 {
		t.Errorf("self BoundaryShift = %v, want 1", got)
	}
	if got := BoundaryShift(a, b, 1e9); got != 0 {
		t.Errorf("unreachable boundary shift = %v, want 0", got)
	}
}

// TestOptimalSizeShift: reducing the L1 miss ratio by a factor r scales
// the equal-performance slopes by r, which under the constant per-byte
// cost model moves the optimal size right by r^(1/(1+alpha)) — the paper's
// §4 prediction. The analytic grid has alpha = 0.54.
func TestOptimalSizeShift(t *testing.T) {
	const r = 2.6 // M_L1(4KB)/M_L1(32KB), roughly
	a := analyticGrid(0.1)
	b := analyticGrid(0.1 / r)
	want := math.Pow(r, 1/1.54)
	got := OptimalSizeShift(a, b)
	if math.Abs(got-want) > 0.25 {
		t.Errorf("OptimalSizeShift = %.3f, want ≈ %.3f", got, want)
	}
	if got := OptimalSizeShift(a, analyticGrid(0.1)); math.Abs(got-1) > 0.03 {
		t.Errorf("self shift = %v, want 1", got)
	}
}
