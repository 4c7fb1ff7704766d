package experiments

import (
	"fmt"

	"mlcache/internal/contour"
	"mlcache/internal/mainmem"
	"mlcache/internal/memsys"
	"mlcache/internal/sweep"
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

// SpeedSize reproduces the Figure 4-1 sweep: L2 sizes from 4 KB to 4 MB and
// L2 cycle times from 1 to 10 CPU cycles (Assoc selects the set size; the
// paper's Figure 4-1 uses direct-mapped). The memory configuration selects
// the base machine (Figures 4-1/4-2/4-3) or the 2×-slower memory of
// Figure 4-4.
func SpeedSize(l1TotalKB int, assoc int, mem mainmem.Config, grid sweep.Grid, opt Options) (SpeedSizeResult, error) {
	res := SpeedSizeResult{L1TotalKB: l1TotalKB, Memory: mem, Grid: grid}
	arena, err := opt.arena()
	if err != nil {
		return res, err
	}
	runner := sweep.Runner{
		Configure: func(pt sweep.Point) memsys.Config {
			return BaseMachine(l1TotalKB, L2Config(pt.L2SizeBytes, pt.L2CycleNS, pt.L2Assoc), mem)
		},
		Arena:       arena,
		CPU:         opt.CPU(),
		Parallelism: opt.Parallelism,
	}
	var pts []sweep.Point
	for _, s := range grid.SizesBytes {
		for _, c := range grid.CyclesNS {
			pts = append(pts, sweep.Point{L2SizeBytes: s, L2CycleNS: c, L2Assoc: assoc})
		}
	}
	results, err := runner.RunPoints(pts)
	if err != nil {
		return res, fmt.Errorf("speed-size sweep: %w", err)
	}
	k := 0
	res.Rel = make([][]float64, len(grid.SizesBytes))
	res.TimeNS = make([][]int64, len(grid.SizesBytes))
	for i := range grid.SizesBytes {
		res.Rel[i] = make([]float64, len(grid.CyclesNS))
		res.TimeNS[i] = make([]int64, len(grid.CyclesNS))
		for j := range grid.CyclesNS {
			res.Rel[i][j] = results[k].Run.RelTime
			res.TimeNS[i][j] = results[k].Run.TimeNS
			k++
		}
	}
	res.L1GlobalMiss = results[0].Run.Mem.L1GlobalReadMissRatio()
	return res, nil
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
