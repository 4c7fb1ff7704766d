package experiments

import (
	"fmt"
	"sync"

	"mlcache/internal/mainmem"
	"mlcache/internal/sweep"
)

// Context computes the work that experiments share once per process and
// memoizes the results, never a trace: each computation generates the
// trace it reads and drops it on return. A surface request is answered
// from any memoized surface of the same L1, set size and memory whose grid
// holds every requested point (4-1/4-2 share a surface, and 5-1..5-3 read
// the direct-mapped surface of 4-1). BreakEven computes its two surfaces
// in one sweep when neither is memoized. The first request for an
// ablation table simulates all eight in one sweep over one trace. A
// Context is safe for concurrent use; two requests that miss at once both
// compute, and the results are the same.
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

// MissRatios returns the (memoized) Figure 3 curve for an L1 size.
func (c *Context) MissRatios(l1TotalKB int) (MissRatioResult, error) {
	c.mu.Lock()
	if r, ok := c.missCurve[l1TotalKB]; ok {
		c.mu.Unlock()
		return r, nil
	}
	c.mu.Unlock()
	r, err := MissRatios(l1TotalKB, Fig3Sizes(), c.Opt)
	if err != nil {
		return r, err
	}
	c.mu.Lock()
	c.missCurve[l1TotalKB] = r
	c.mu.Unlock()
	return r, nil
}

// Surface returns the (memoized) speed–size surface for the parameters.
func (c *Context) Surface(l1TotalKB, assoc int, mem mainmem.Config, grid sweep.Grid) (SpeedSizeResult, error) {
	rs, err := c.surfacesFor(l1TotalKB, mem, []surfaceSpec{{assoc, grid}})
	if err != nil {
		return SpeedSizeResult{}, err
	}
	return rs[0], nil
}

// surfacesFor returns the surface of each spec on one L1 and memory,
// computing those that no memoized surface holds in one sweep.
func (c *Context) surfacesFor(l1TotalKB int, mem mainmem.Config, specs []surfaceSpec) ([]SpeedSizeResult, error) {
	out := make([]SpeedSizeResult, len(specs))
	var missing []surfaceSpec
	var at []int
	c.mu.Lock()
	for n, sp := range specs {
		found := false
		for _, r := range c.surfaces[surfaceKey{l1TotalKB, sp.assoc, mem}] {
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
	rs, err := speedSizes(arena, l1TotalKB, mem, missing, c.Opt)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	for k, n := range at {
		key := surfaceKey{l1TotalKB, missing[k].assoc, mem}
		c.surfaces[key] = append(c.surfaces[key], rs[k])
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
	rs, err := c.surfacesFor(l1TotalKB, mainmem.Base(), []surfaceSpec{{1, grid}, {setSize, extGrid}})
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
