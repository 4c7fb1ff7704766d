package experiments

import (
	"fmt"
	"slices"

	"mlcache/internal/contour"
	"mlcache/internal/mainmem"
	"mlcache/internal/memsys"
	"mlcache/internal/sweep"
	"mlcache/internal/trace"
)

// SpeedSizeResult is the data behind Figure 4-1 (relative execution time
// surface) and Figures 4-2/4-3/4-4 (its lines of constant performance):
// relative execution time over the (L2 size, L2 cycle time) design space.
type SpeedSizeResult struct {
	L1TotalKB int
	Memory    mainmem.Config
	Grid      sweep.Grid
	// Rel[i][j] is the relative execution time at size i, cycle time j.
	Rel [][]float64
	// TimeNS[i][j] is the absolute execution time, used by the set-size
	// break-even analysis.
	TimeNS [][]int64
	// L1GlobalMiss is M_L1 measured on this workload.
	L1GlobalMiss float64
}

// surfaceSpec is one speed–size surface: the machines of its key over a
// grid of L2 sizes and cycle times.
type surfaceSpec struct {
	surfaceKey
	grid sweep.Grid
}

// speedSizes computes the surface of every spec over one arena in one
// sweep; specs that share an L1 share its capture.
func speedSizes(arena *trace.Arena, specs []surfaceSpec, opt Options) ([]SpeedSizeResult, error) {
	var cfgs []memsys.Config
	for _, sp := range specs {
		for _, s := range sp.grid.SizesBytes {
			for _, c := range sp.grid.CyclesNS {
				cfgs = append(cfgs, BaseMachine(sp.l1TotalKB, L2Config(s, c, sp.assoc), sp.mem))
			}
		}
	}
	runs, err := simulate(arena, opt, cfgs, false)
	if err != nil {
		return nil, fmt.Errorf("speed-size sweep: %w", err)
	}
	out := make([]SpeedSizeResult, len(specs))
	k := 0
	for n, sp := range specs {
		res := SpeedSizeResult{L1TotalKB: sp.l1TotalKB, Memory: sp.mem, Grid: sp.grid}
		res.Rel = make([][]float64, len(sp.grid.SizesBytes))
		res.TimeNS = make([][]int64, len(sp.grid.SizesBytes))
		res.L1GlobalMiss = runs[k].Mem.L1GlobalReadMissRatio()
		for i := range sp.grid.SizesBytes {
			res.Rel[i] = make([]float64, len(sp.grid.CyclesNS))
			res.TimeNS[i] = make([]int64, len(sp.grid.CyclesNS))
			for j := range sp.grid.CyclesNS {
				res.Rel[i][j] = runs[k].RelTime
				res.TimeNS[i][j] = runs[k].TimeNS
				k++
			}
		}
		out[n] = res
	}
	return out, nil
}

// subSurface returns the part of r on grid when r's grid holds every size
// and cycle time of grid: r itself when the grids are equal, a copy of the
// sub-matrix otherwise. The L1 is the same at every point, so the copy
// keeps r's L1GlobalMiss.
func (r SpeedSizeResult) subSurface(grid sweep.Grid) (SpeedSizeResult, bool) {
	if slices.Equal(r.Grid.SizesBytes, grid.SizesBytes) && slices.Equal(r.Grid.CyclesNS, grid.CyclesNS) {
		return r, true
	}
	rows := indexesIn(r.Grid.SizesBytes, grid.SizesBytes)
	cols := indexesIn(r.Grid.CyclesNS, grid.CyclesNS)
	if rows == nil || cols == nil {
		return SpeedSizeResult{}, false
	}
	sub := SpeedSizeResult{L1TotalKB: r.L1TotalKB, Memory: r.Memory, Grid: grid, L1GlobalMiss: r.L1GlobalMiss}
	sub.Rel = make([][]float64, len(rows))
	sub.TimeNS = make([][]int64, len(rows))
	for i, ri := range rows {
		sub.Rel[i] = make([]float64, len(cols))
		sub.TimeNS[i] = make([]int64, len(cols))
		for j, cj := range cols {
			sub.Rel[i][j] = r.Rel[ri][cj]
			sub.TimeNS[i][j] = r.TimeNS[ri][cj]
		}
	}
	return sub, true
}

// indexesIn returns the index in have of each value of want, or nil when
// have lacks one of them.
func indexesIn(have, want []int64) []int {
	idx := make([]int, len(want))
	for i, v := range want {
		if idx[i] = slices.Index(have, v); idx[i] < 0 {
			return nil
		}
	}
	return idx
}

// Fig4Grid is the design space of Figures 4-1 through 4-4: L2 sizes
// 4 KB–4 MB, cycle times 1–10 CPU cycles.
func Fig4Grid() sweep.Grid {
	return sweep.Grid{
		SizesBytes: sweep.SizesPow2(4, 4096),
		CyclesNS:   sweep.CyclesRange(1, 10, CPUCycleNS),
	}
}

// ContourGrid adapts the result for package contour.
func (r SpeedSizeResult) ContourGrid() *contour.Grid {
	return &contour.Grid{
		SizesBytes: r.Grid.SizesBytes,
		CyclesNS:   r.Grid.CyclesNS,
		Rel:        r.Rel,
	}
}

// SlopeBoundariesNS are the paper's slope-region boundaries: 0.75, 1.5,
// and 3 CPU cycles per L2 size doubling, in nanoseconds.
func SlopeBoundariesNS() []float64 {
	return []float64{0.75 * CPUCycleNS, 1.5 * CPUCycleNS, 3 * CPUCycleNS}
}
