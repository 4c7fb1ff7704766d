// Package contour analyzes a grid of relative execution times over the
// (L2 size, L2 cycle time) design space: it extracts the paper's lines of
// constant performance (Figures 4-2 through 4-4), the local tradeoff slope
// at every design point (the "CPU cycles per size doubling" that bound the
// shaded regions), and the rightward shift between two design spaces (the
// paper's ×1.74 for an 8× L1).
package contour

import (
	"fmt"
	"math"
	"sort"
)

// Grid is a matrix of relative execution times: Rel[i][j] is the relative
// time at SizesBytes[i], CyclesNS[j]. Sizes and cycle times must be
// ascending; Rel must be monotone increasing in the cycle time (more time
// per L2 access can never help).
type Grid struct {
	SizesBytes []int64
	CyclesNS   []int64
	Rel        [][]float64
}

// Validate checks the grid's shape and orderings.
func (g *Grid) Validate() error {
	if len(g.SizesBytes) < 2 || len(g.CyclesNS) < 2 {
		return fmt.Errorf("contour: grid needs at least 2 sizes and 2 cycle times")
	}
	if len(g.Rel) != len(g.SizesBytes) {
		return fmt.Errorf("contour: %d rows for %d sizes", len(g.Rel), len(g.SizesBytes))
	}
	for i, row := range g.Rel {
		if len(row) != len(g.CyclesNS) {
			return fmt.Errorf("contour: row %d has %d entries for %d cycle times", i, len(row), len(g.CyclesNS))
		}
	}
	for i := 1; i < len(g.SizesBytes); i++ {
		if g.SizesBytes[i] <= g.SizesBytes[i-1] {
			return fmt.Errorf("contour: sizes not ascending at %d", i)
		}
	}
	for j := 1; j < len(g.CyclesNS); j++ {
		if g.CyclesNS[j] <= g.CyclesNS[j-1] {
			return fmt.Errorf("contour: cycle times not ascending at %d", j)
		}
	}
	return nil
}

// MinMax returns the smallest and largest relative times in the grid.
func (g *Grid) MinMax() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, row := range g.Rel {
		for _, v := range row {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	return lo, hi
}

// Levels returns contour levels covering the grid at the given increment,
// aligned to multiples of the increment (the paper uses increments of 0.1
// in relative execution time).
func (g *Grid) Levels(step float64) []float64 {
	lo, hi := g.MinMax()
	var out []float64
	for l := math.Ceil(lo/step) * step; l <= hi; l += step {
		out = append(out, l)
	}
	return out
}

// Point is one vertex of a contour line.
type Point struct {
	SizeBytes float64
	CycleNS   float64
}

// Line extracts the line of constant performance at the given level: for
// each cache size, the L2 cycle time at which the relative execution time
// equals the level (linear interpolation between grid rows). Sizes where
// the level is unreachable are skipped, so the line may cover a sub-range
// of sizes; machines on the line are performance-equivalent.
func (g *Grid) Line(level float64) []Point {
	var pts []Point
	for i, size := range g.SizesBytes {
		row := g.Rel[i]
		cyc, ok := invertRow(g.CyclesNS, row, level)
		if !ok {
			continue
		}
		pts = append(pts, Point{SizeBytes: float64(size), CycleNS: cyc})
	}
	return pts
}

// invertRow finds the cycle time where the (monotone increasing) row
// crosses the level.
func invertRow(cycles []int64, rel []float64, level float64) (float64, bool) {
	// Tolerate small non-monotonicities from simulation noise by scanning
	// for the first bracketing pair.
	for j := 0; j+1 < len(rel); j++ {
		lo, hi := rel[j], rel[j+1]
		if (lo <= level && level <= hi) || (hi <= level && level <= lo) {
			if hi == lo {
				return float64(cycles[j]), true
			}
			f := (level - lo) / (hi - lo)
			return float64(cycles[j]) + f*float64(cycles[j+1]-cycles[j]), true
		}
	}
	return 0, false
}

// SlopesPerDoubling returns, for each adjacent size pair on the line, the
// increase in cycle time (ns) that keeps performance constant across one
// size doubling. Positive slopes mean a larger cache buys headroom for a
// slower cache — the crucial quantity of §4.
func SlopesPerDoubling(line []Point) []float64 {
	var out []float64
	for i := 0; i+1 < len(line); i++ {
		doublings := math.Log2(line[i+1].SizeBytes / line[i].SizeBytes)
		if doublings == 0 {
			continue
		}
		out = append(out, (line[i+1].CycleNS-line[i].CycleNS)/doublings)
	}
	return out
}

// SlopeField computes the local equal-performance slope at every interior
// grid cell: Δ(cycle time) per size doubling, in nanoseconds, from the
// finite-difference gradient of the relative-time surface:
//
//	slope = -(∂Rel/∂log2 size) / (∂Rel/∂cycleNS)
//
// Cells where the cycle-time sensitivity vanishes get +Inf (a free lunch:
// the cycle time does not matter there). The result is indexed
// [sizeIdx][cycleIdx] with one fewer entry per axis than the grid.
func (g *Grid) SlopeField() [][]float64 {
	ns, nc := len(g.SizesBytes), len(g.CyclesNS)
	field := make([][]float64, ns-1)
	for i := 0; i < ns-1; i++ {
		field[i] = make([]float64, nc-1)
		dlog := math.Log2(float64(g.SizesBytes[i+1]) / float64(g.SizesBytes[i]))
		for j := 0; j < nc-1; j++ {
			dRelDSize := (g.Rel[i+1][j] - g.Rel[i][j]) / dlog
			dRelDCyc := (g.Rel[i][j+1] - g.Rel[i][j]) / float64(g.CyclesNS[j+1]-g.CyclesNS[j])
			if dRelDCyc <= 0 {
				field[i][j] = math.Inf(1)
				continue
			}
			field[i][j] = -dRelDSize / dRelDCyc
		}
	}
	return field
}

// Region classifies a slope (ns per doubling) against ascending boundary
// values, returning the number of boundaries at or below it. With the
// paper's boundaries {7.5, 15, 30} ns (0.75, 1.5, 3 CPU cycles) the result
// 0 is the unshaded flat region and 3 the steep leftmost region.
func Region(slope float64, boundaries []float64) int {
	n := sort.SearchFloat64s(boundaries, slope)
	// SearchFloat64s returns the insertion index; a slope equal to a
	// boundary belongs to the upper region.
	for n < len(boundaries) && boundaries[n] == slope {
		n++
	}
	return n
}

// BoundaryShift measures the rightward shift, as a size factor, of the
// equal-performance slope structure between two design spaces: for each
// cycle-time row, the (log-interpolated) size at which the local slope
// falls through boundaryNS is found in both grids, and the geometric mean
// of the size ratios b/a is returned. It compares the *structure* of the
// tradeoff, not absolute performance levels, so it is
// meaningful between machines of different overall speed — it is the
// quantity behind the paper's "a larger L1 shifts the lines of constant
// performance right" and "slower memory shifts the shaded regions right".
// Rows without a crossing in either grid are skipped; 0 means nothing was
// comparable.
func BoundaryShift(a, b *Grid, boundaryNS float64) float64 {
	fa, fb := a.SlopeField(), b.SlopeField()
	rows := len(a.CyclesNS) - 1
	if r := len(b.CyclesNS) - 1; r < rows {
		rows = r
	}
	var logs []float64
	for j := 0; j < rows; j++ {
		sa, oka := slopeCrossing(fa, a.SizesBytes, j, boundaryNS)
		sb, okb := slopeCrossing(fb, b.SizesBytes, j, boundaryNS)
		if oka && okb {
			logs = append(logs, math.Log2(sb/sa))
		}
	}
	if len(logs) == 0 {
		return 0
	}
	var sum float64
	for _, l := range logs {
		sum += l
	}
	return math.Pow(2, sum/float64(len(logs)))
}

// slopeCrossing finds the size at which the slope field row j falls
// through the boundary, interpolating log(slope) against log2(size).
// Requires the row to start above the boundary and cross within the grid.
func slopeCrossing(field [][]float64, sizes []int64, j int, boundary float64) (float64, bool) {
	vals := make([]float64, len(field))
	for i := range field {
		vals[i] = field[i][j]
	}
	return curveCrossing(vals, sizes, boundary)
}

// curveCrossing finds where a positive, decreasing curve over sizes falls
// through the threshold, interpolating log(value) against log2(size).
func curveCrossing(vals []float64, sizes []int64, threshold float64) (float64, bool) {
	for i := 0; i+1 < len(vals); i++ {
		hi, lo := vals[i], vals[i+1]
		if math.IsInf(hi, 0) || math.IsInf(lo, 0) {
			continue
		}
		if hi >= threshold && threshold > lo && hi > 0 && lo > 0 {
			f := (math.Log(hi) - math.Log(threshold)) / (math.Log(hi) - math.Log(lo))
			logSize := math.Log2(float64(sizes[i])) + f*(math.Log2(float64(sizes[i+1]))-math.Log2(float64(sizes[i])))
			return math.Pow(2, logSize), true
		}
	}
	return 0, false
}

// OptimalSizeShift measures the rightward shift, as a size factor, of the
// *performance-optimal cache size* between two design spaces, under the
// paper's §4 assumption that the marginal cycle-time cost of cache size is
// constant per byte. The optimum then sits where the equal-performance
// slope per doubling, divided by the size (i.e. the benefit of the next
// byte), falls through the per-byte cost; the cost value cancels in the
// ratio, so the shift is measured at several thresholds spanning the
// overlap of both grids and averaged geometrically. This is the paper's
// "lines of constant performance shifted by a factor of 1.74" (predicted
// 2.04) comparison between Figures 4-2 and 4-3.
func OptimalSizeShift(a, b *Grid) float64 {
	fa, fb := a.SlopeField(), b.SlopeField()
	rows := len(a.CyclesNS) - 1
	if r := len(b.CyclesNS) - 1; r < rows {
		rows = r
	}
	var logs []float64
	for j := 0; j < rows; j++ {
		// Trim each benefit curve to the descent from its peak: design
		// points with the L2 smaller than the L1 behave pathologically
		// (the paper's figures share the artifact) and must not anchor
		// crossings.
		va, sza := trimToPeak(perByteBenefit(fa, a.SizesBytes, j), a.SizesBytes)
		vb, szb := trimToPeak(perByteBenefit(fb, b.SizesBytes, j), b.SizesBytes)
		loT, hiT, ok := overlapRange(va, vb)
		if !ok {
			continue
		}
		// Sample thresholds strictly inside the overlap.
		for k := 1; k <= 4; k++ {
			t := math.Exp(math.Log(loT) + float64(k)/5*(math.Log(hiT)-math.Log(loT)))
			sa, oka := curveCrossing(va, sza, t)
			sb, okb := curveCrossing(vb, szb, t)
			if oka && okb {
				logs = append(logs, math.Log2(sb/sa))
			}
		}
	}
	if len(logs) == 0 {
		return 0
	}
	var sum float64
	for _, l := range logs {
		sum += l
	}
	return math.Pow(2, sum/float64(len(logs)))
}

// trimToPeak returns the suffix of the curve starting at its (finite)
// maximum, with the matching size axis.
func trimToPeak(vals []float64, sizes []int64) ([]float64, []int64) {
	peak := -1
	for i, v := range vals {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			continue
		}
		if peak < 0 || v > vals[peak] {
			peak = i
		}
	}
	if peak < 0 {
		peak = 0
	}
	return vals[peak:], sizes[peak:]
}

// perByteBenefit converts a slope-field row to the benefit of the next
// byte: slope per doubling divided by size.
func perByteBenefit(field [][]float64, sizes []int64, j int) []float64 {
	out := make([]float64, len(field))
	for i := range field {
		out[i] = field[i][j] / float64(sizes[i])
	}
	return out
}

// overlapRange returns the overlapping strictly-positive finite value
// range of two decreasing curves.
func overlapRange(a, b []float64) (lo, hi float64, ok bool) {
	minMax := func(v []float64) (float64, float64, bool) {
		mn, mx := math.Inf(1), 0.0
		for _, x := range v {
			if x <= 0 || math.IsInf(x, 0) || math.IsNaN(x) {
				continue
			}
			mn = math.Min(mn, x)
			mx = math.Max(mx, x)
		}
		return mn, mx, mx > 0 && !math.IsInf(mn, 1)
	}
	aMin, aMax, okA := minMax(a)
	bMin, bMax, okB := minMax(b)
	if !okA || !okB {
		return 0, 0, false
	}
	lo = math.Max(aMin, bMin)
	hi = math.Min(aMax, bMax)
	return lo, hi, hi > lo
}
