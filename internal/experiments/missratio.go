package experiments

import (
	"fmt"
	"math"

	"mlcache/internal/mainmem"
	"mlcache/internal/memsys"
	"mlcache/internal/sweep"
	"mlcache/internal/trace"
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
	arena, err := opt.arena()
	if err != nil {
		return MissRatioResult{L1TotalKB: l1TotalKB}, err
	}
	return missRatios(arena, l1TotalKB, sizesBytes, nil, opt)
}

// missRatios computes the curve over arena, its two-level and solo
// machines in one sweep. With solo non-nil (the rows of another curve over
// the same sizes) it takes their solo column instead of simulating it.
func missRatios(arena *trace.Arena, l1TotalKB int, sizesBytes []int64, solo []MissRatioRow, opt Options) (MissRatioResult, error) {
	res := MissRatioResult{L1TotalKB: l1TotalKB}
	var cfgs []memsys.Config
	for _, s := range sizesBytes {
		cfgs = append(cfgs, BaseMachine(l1TotalKB, L2Config(s, 3*CPUCycleNS, 1), mainmem.Base()))
	}
	if solo == nil {
		for _, s := range sizesBytes {
			cfgs = append(cfgs, SoloMachine(L2Config(s, 3*CPUCycleNS, 1), mainmem.Base()))
		}
	}
	runs, err := simulate(arena, opt, cfgs, false)
	if err != nil {
		return res, fmt.Errorf("miss-ratio sweep: %w", err)
	}

	for i, s := range sizesBytes {
		two := runs[i]
		l2 := two.Mem.Down[0]
		row := MissRatioRow{
			L2SizeBytes: s,
			Local:       l2.LocalReadMissRatio(),
			Global:      l2.GlobalReadMissRatio(two.CPUReads),
		}
		if solo == nil {
			row.Solo = runs[len(sizesBytes)+i].Mem.L1.LocalReadMissRatio()
		} else {
			row.Solo = solo[i].Solo
		}
		if l2.StoreFills > 0 {
			row.StoreFillMiss = float64(l2.StoreFillMisses) / float64(l2.StoreFills)
		}
		res.Rows = append(res.Rows, row)
	}
	res.L1GlobalMiss = runs[0].Mem.L1GlobalReadMissRatio()
	if d := runs[0].Mem.L1D; d != nil && d.Cache.WriteRefs > 0 {
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
