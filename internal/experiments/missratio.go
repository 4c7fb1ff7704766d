package experiments

import (
	"fmt"
	"math"

	"mlcache/internal/mainmem"
	"mlcache/internal/memsys"
	"mlcache/internal/sweep"
)

// MissRatioRow is one point of Figures 3-1 / 3-2: the three miss ratios of
// §2 for one L2 size.
type MissRatioRow struct {
	L2SizeBytes int64
	// Local: L2 misses over reads reaching the L2 (= L1 read misses).
	Local float64
	// Global: L2 misses over CPU reads.
	Global float64
	// Solo: the L2's miss ratio with the L1 removed entirely.
	Solo float64
	// StoreFillMiss: the L2 miss ratio of store-triggered fills, the
	// write-side analogue used for the measured t̄_L1write of Equation 1.
	StoreFillMiss float64
}

// MissRatioResult is the full curve for one L1 size.
type MissRatioResult struct {
	L1TotalKB    int
	Rows         []MissRatioRow
	L1GlobalMiss float64
	// L1DWriteMissRatio is the first level's local write miss ratio (the
	// fraction of stores that must fetch their block).
	L1DWriteMissRatio float64
	// SoloDoublingFactor is the geometric-mean solo miss reduction per L2
	// doubling over the non-plateau range (the paper's ≈0.69).
	SoloDoublingFactor float64
}

// MissRatios reproduces Figure 3-1 (l1TotalKB = 4) or Figure 3-2
// (l1TotalKB = 32): L2 local, global, and solo read miss ratios as the L2
// size is varied, with the default 3-CPU-cycle L2.
func MissRatios(l1TotalKB int, sizesBytes []int64, opt Options) (MissRatioResult, error) {
	res := MissRatioResult{L1TotalKB: l1TotalKB}
	arena, err := opt.arena()
	if err != nil {
		return res, err
	}

	// Two-level runs across the sizes.
	twoLevel := sweep.Runner{
		Configure: func(pt sweep.Point) memsys.Config {
			return BaseMachine(l1TotalKB, L2Config(pt.L2SizeBytes, pt.L2CycleNS, pt.L2Assoc), mainmem.Base())
		},
		Arena:       arena,
		CPU:         opt.CPU(),
		Parallelism: opt.Parallelism,
	}
	var pts []sweep.Point
	for _, s := range sizesBytes {
		pts = append(pts, sweep.Point{L2SizeBytes: s, L2CycleNS: 3 * CPUCycleNS, L2Assoc: 1})
	}
	twoRes, err := twoLevel.RunPoints(pts)
	if err != nil {
		return res, fmt.Errorf("two-level runs: %w", err)
	}

	// Solo runs: the L2 alone in the system.
	solo := sweep.Runner{
		Configure: func(pt sweep.Point) memsys.Config {
			return SoloMachine(L2Config(pt.L2SizeBytes, pt.L2CycleNS, pt.L2Assoc), mainmem.Base())
		},
		Arena:       arena,
		CPU:         opt.CPU(),
		Parallelism: opt.Parallelism,
	}
	soloRes, err := solo.RunPoints(pts)
	if err != nil {
		return res, fmt.Errorf("solo runs: %w", err)
	}

	for i := range pts {
		two := twoRes[i].Run
		l2 := two.Mem.Down[0]
		row := MissRatioRow{
			L2SizeBytes: pts[i].L2SizeBytes,
			Local:       l2.LocalReadMissRatio(),
			Global:      l2.GlobalReadMissRatio(two.CPUReads),
			Solo:        soloRes[i].Run.Mem.L1.LocalReadMissRatio(),
		}
		if l2.StoreFills > 0 {
			row.StoreFillMiss = float64(l2.StoreFillMisses) / float64(l2.StoreFills)
		}
		res.Rows = append(res.Rows, row)
	}
	res.L1GlobalMiss = twoRes[0].Run.Mem.L1GlobalReadMissRatio()
	if d := twoRes[0].Run.Mem.L1D; d != nil && d.Cache.WriteRefs > 0 {
		res.L1DWriteMissRatio = float64(d.Cache.WriteMisses) / float64(d.Cache.WriteRefs)
	}
	res.SoloDoublingFactor = soloDoubling(res.Rows)
	return res, nil
}

// soloDoubling computes the geometric-mean per-doubling factor over
// consecutive solo points, excluding the plateau (factors above 0.9).
func soloDoubling(rows []MissRatioRow) float64 {
	prod, n := 1.0, 0
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Solo <= 0 || rows[i].Solo <= 0 {
			continue
		}
		doublings := math.Log2(float64(rows[i].L2SizeBytes) / float64(rows[i-1].L2SizeBytes))
		f := math.Pow(rows[i].Solo/rows[i-1].Solo, 1/doublings)
		if f >= 0.9 { // plateau
			continue
		}
		prod *= f
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Pow(prod, 1/float64(n))
}

// Fig3Sizes is the L2 size range of Figures 3-1/3-2: 8 KB to 4 MB.
func Fig3Sizes() []int64 { return sweep.SizesPow2(8, 4096) }
