package experiments

import (
	"fmt"
	"sync"

	"mlcache/internal/mainmem"
	"mlcache/internal/sweep"
)

// Context is how every table is computed: it computes the work that
// experiments share once per process and memoizes the results, never a
// trace. Each computation generates the trace it reads, simulates its
// machines through simulate and drops the trace on return.
//
// A surface request is answered from any memoized surface of the same L1,
// set size and memory whose grid holds every requested point: 4-1/4-2
// share a surface, 5-1..5-3 read 4-1's direct-mapped surface, and l1opt
// reads its 4, 8 and 32 KB rows from 4-1's, derived's 8 KB-L1 and 4-3's.
// The surfaces no memo holds are computed together in one sweep. A Figure
// 3 curve computed after another takes the other's solo column. The first
// request for an ablation table simulates all eight studies in one sweep
// over one trace. A Context is safe for concurrent use; two requests that
// miss at once both compute, and the results are the same.
type Context struct {
	Opt Options

	mu        sync.Mutex
	surfaces  map[surfaceKey][]SpeedSizeResult
	missCurve map[int]MissRatioResult
	ablations []AblationResult
}

// surfaceKey is what every point of a memoized surface shares.
type surfaceKey struct {
	l1TotalKB, assoc int
	mem              mainmem.Config
}

// NewContext returns a Context with the given options.
func NewContext(opt Options) *Context {
	return &Context{
		Opt:       opt,
		surfaces:  map[surfaceKey][]SpeedSizeResult{},
		missCurve: map[int]MissRatioResult{},
	}
}

// MissRatios returns the (memoized) Figure 3 curve for an L1 size. The
// solo machine has no L1, so a curve computed after another takes the
// other's solo column and simulates only its two-level machines.
func (c *Context) MissRatios(l1TotalKB int) (MissRatioResult, error) {
	c.mu.Lock()
	r, ok := c.missCurve[l1TotalKB]
	var solo []MissRatioRow
	for _, other := range c.missCurve {
		solo = other.Rows
		break
	}
	c.mu.Unlock()
	if ok {
		return r, nil
	}
	arena, err := c.Opt.arena()
	if err != nil {
		return r, err
	}
	if r, err = missRatios(arena, l1TotalKB, Fig3Sizes(), solo, c.Opt); err != nil {
		return r, err
	}
	c.mu.Lock()
	c.missCurve[l1TotalKB] = r
	c.mu.Unlock()
	return r, nil
}

// Surface returns the (memoized) speed–size surface for the parameters.
func (c *Context) Surface(l1TotalKB, assoc int, mem mainmem.Config, grid sweep.Grid) (SpeedSizeResult, error) {
	rs, err := c.surfacesFor([]surfaceSpec{{surfaceKey{l1TotalKB, assoc, mem}, grid}})
	if err != nil {
		return SpeedSizeResult{}, err
	}
	return rs[0], nil
}

// surfacesFor returns the surface of each spec, computing those that no
// memoized surface holds in one sweep.
func (c *Context) surfacesFor(specs []surfaceSpec) ([]SpeedSizeResult, error) {
	out := make([]SpeedSizeResult, len(specs))
	var missing []surfaceSpec
	var at []int
	c.mu.Lock()
	for n, sp := range specs {
		found := false
		for _, r := range c.surfaces[sp.surfaceKey] {
			if out[n], found = r.subSurface(sp.grid); found {
				break
			}
		}
		if !found {
			missing = append(missing, sp)
			at = append(at, n)
		}
	}
	c.mu.Unlock()
	if len(missing) == 0 {
		return out, nil
	}
	arena, err := c.Opt.arena()
	if err != nil {
		return nil, err
	}
	rs, err := speedSizes(arena, missing, c.Opt)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	for k, n := range at {
		c.surfaces[missing[k].surfaceKey] = append(c.surfaces[missing[k].surfaceKey], rs[k])
		out[n] = rs[k]
	}
	c.mu.Unlock()
	return out, nil
}

// ablation returns the (memoized) table of the study with the given
// title. The first request simulates every study in one sweep over one
// trace.
func (c *Context) ablation(title string) (AblationResult, error) {
	c.mu.Lock()
	all := c.ablations
	c.mu.Unlock()
	if all == nil {
		arena, err := c.Opt.arena()
		if err != nil {
			return AblationResult{}, err
		}
		if all, err = runStudies(arena, c.Opt, ablationStudies()); err != nil {
			return AblationResult{}, err
		}
		c.mu.Lock()
		c.ablations = all
		c.mu.Unlock()
	}
	for _, r := range all {
		if r.Title == title {
			return r, nil
		}
	}
	return AblationResult{}, fmt.Errorf("experiments: no ablation study %q", title)
}

// BreakEven returns the Figure 5 surface for a set size, sharing the
// underlying sweeps through the context cache.
func (c *Context) BreakEven(l1TotalKB, setSize int, grid sweep.Grid) (BreakEvenResult, error) {
	res := BreakEvenResult{
		L1TotalKB:  l1TotalKB,
		SetSize:    setSize,
		SizesBytes: grid.SizesBytes,
		CyclesNS:   grid.CyclesNS,
	}
	if setSize < 2 {
		return res, fmt.Errorf("experiments: set size %d must be at least 2", setSize)
	}
	extGrid := sweep.Grid{SizesBytes: grid.SizesBytes, CyclesNS: extendCycles(grid.CyclesNS, 8)}
	rs, err := c.surfacesFor([]surfaceSpec{
		{surfaceKey{l1TotalKB, 1, mainmem.Base()}, grid},
		{surfaceKey{l1TotalKB, setSize, mainmem.Base()}, extGrid},
	})
	if err != nil {
		return res, err
	}
	dm, sa := rs[0], rs[1]
	res.BreakEvenNS = make([][]float64, len(grid.SizesBytes))
	for i := range grid.SizesBytes {
		res.BreakEvenNS[i] = make([]float64, len(grid.CyclesNS))
		for j, dmCycle := range grid.CyclesNS {
			saCycle := invertTime(extGrid.CyclesNS, sa.TimeNS[i], dm.TimeNS[i][j])
			res.BreakEvenNS[i][j] = saCycle - float64(dmCycle)
		}
	}
	return res, nil
}
