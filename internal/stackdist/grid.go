package stackdist

import (
	"fmt"

	"mlcache/internal/trace"
)

// gridLevel holds the truncated per-set LRU stacks for one set count. All
// (size, assoc) pairs with size/(assoc·block) sets share one level.
type gridLevel struct {
	sets    int64
	setMask uint64
	// stacks is sets × maxAssoc block keys (block number + 1; 0 = empty),
	// each set's slice ordered most- to least-recently used.
	stacks []uint64
	// hist[d-1] counts warm references whose per-set stack distance was d;
	// deep counts warm references deeper than maxAssoc (a miss at every
	// associativity of interest).
	hist []int64
	deep int64
}

// Grid extends the fully-associative Mattson profiler to set-associative
// geometries: one pass over a reference stream yields the *exact* miss
// count of an LRU cache at every (size, associativity) point of a grid
// dimension simultaneously. For each distinct set count the engine keeps
// a truncated per-set LRU stack (deep enough for the largest
// associativity of interest) and histograms the per-set stack distance
// of every warm reference; a reference misses a cache of associativity A
// exactly when its distance within the set exceeds A. This is TRISHUL's
// observation (PAPERS.md arXiv:1506.03182) specialized to LRU:
// set-indexed stacks make the one-pass technique exact for
// set-associative caches, not just fully-associative ones. The zero
// value is not ready; use NewGrid.
type Grid struct {
	blockBits uint
	maxAssoc  int
	levels    []gridLevel
	bySets    map[int64]int
	seen      map[uint64]struct{}
	cold      int64
	total     int64
}

// NewGrid returns a profiler able to answer every combination of the given
// cache sizes and associativities over blocks of blockBytes. Sizes must be
// positive multiples of assoc·blockBytes with a power-of-two set count;
// associativities must be ≥ 1 (use Profiler for fully-associative curves).
func NewGrid(blockBytes int, sizesBytes []int64, assocs []int) (*Grid, error) {
	if blockBytes <= 0 || blockBytes&(blockBytes-1) != 0 {
		return nil, fmt.Errorf("stackdist: block size %d must be a positive power of two", blockBytes)
	}
	if len(sizesBytes) == 0 || len(assocs) == 0 {
		return nil, fmt.Errorf("stackdist: grid needs at least one size and one associativity")
	}
	bits := uint(0)
	for b := blockBytes; b > 1; b >>= 1 {
		bits++
	}
	g := &Grid{
		blockBits: bits,
		bySets:    make(map[int64]int),
		seen:      make(map[uint64]struct{}),
	}
	for _, a := range assocs {
		if a < 1 {
			return nil, fmt.Errorf("stackdist: associativity %d must be at least 1 (fully-associative curves use Profiler)", a)
		}
		if a > g.maxAssoc {
			g.maxAssoc = a
		}
	}
	for _, sz := range sizesBytes {
		for _, a := range assocs {
			sets := sz / (int64(a) * int64(blockBytes))
			if sets < 1 || sets*int64(a)*int64(blockBytes) != sz {
				return nil, fmt.Errorf("stackdist: size %d is not a multiple of %d-way × %dB blocks", sz, a, blockBytes)
			}
			if sets&(sets-1) != 0 {
				return nil, fmt.Errorf("stackdist: size %d at %d-way yields %d sets (must be a power of two)", sz, a, sets)
			}
			if _, ok := g.bySets[sets]; ok {
				continue
			}
			g.bySets[sets] = len(g.levels)
			g.levels = append(g.levels, gridLevel{sets: sets, setMask: uint64(sets) - 1})
		}
	}
	for i := range g.levels {
		lv := &g.levels[i]
		lv.stacks = make([]uint64, int(lv.sets)*g.maxAssoc)
		lv.hist = make([]int64, g.maxAssoc)
	}
	return g, nil
}

// Access records one reference.
func (g *Grid) Access(addr uint64) {
	block := addr >> g.blockBits
	g.total++
	_, warm := g.seen[block]
	if !warm {
		g.seen[block] = struct{}{}
		g.cold++
	}
	key := block + 1
	maxA := g.maxAssoc
	for li := range g.levels {
		lv := &g.levels[li]
		base := int(block&lv.setMask) * maxA
		st := lv.stacks[base : base+maxA]
		pos := -1
		for i, b := range st {
			if b == key {
				pos = i
				break
			}
		}
		if warm {
			if pos >= 0 {
				lv.hist[pos]++
			} else {
				lv.deep++
			}
		}
		if pos < 0 {
			pos = maxA - 1
		}
		copy(st[1:pos+1], st[:pos])
		st[0] = key
	}
}

// Total returns the number of references profiled.
func (g *Grid) Total() int64 { return g.total }

// Cold returns the number of first-ever (compulsory) references.
func (g *Grid) Cold() int64 { return g.cold }

// Misses returns the exact number of references that would miss in an LRU
// cache of the given size and associativity, and whether the geometry was
// part of the grid.
func (g *Grid) Misses(sizeBytes int64, assoc int) (int64, bool) {
	if assoc < 1 || assoc > g.maxAssoc {
		return 0, false
	}
	sets := sizeBytes / (int64(assoc) << g.blockBits)
	li, ok := g.bySets[sets]
	if !ok || sets*(int64(assoc)<<g.blockBits) != sizeBytes {
		return 0, false
	}
	lv := &g.levels[li]
	misses := g.cold + lv.deep
	for d := assoc; d < g.maxAssoc; d++ {
		misses += lv.hist[d]
	}
	return misses, true
}

// MissRatio returns Misses over total references.
func (g *Grid) MissRatio(sizeBytes int64, assoc int) (float64, bool) {
	m, ok := g.Misses(sizeBytes, assoc)
	if !ok || g.total == 0 {
		return 0, ok
	}
	return float64(m) / float64(g.total), true
}

// SplitGrid routes instruction and data references to separate grids,
// profiling a split (I + D) first level in the same single pass. Stores
// participate in the data grid's LRU state (a write-allocate cache fills on
// stores) and its miss counts.
type SplitGrid struct {
	I *Grid
	D *Grid
}

// NewSplitGrid builds identical grids for the instruction and data sides.
func NewSplitGrid(blockBytes int, sizesBytes []int64, assocs []int) (*SplitGrid, error) {
	i, err := NewGrid(blockBytes, sizesBytes, assocs)
	if err != nil {
		return nil, err
	}
	d, err := NewGrid(blockBytes, sizesBytes, assocs)
	if err != nil {
		return nil, err
	}
	return &SplitGrid{I: i, D: d}, nil
}

// Access records one reference on the side its kind selects.
func (g *SplitGrid) Access(addr uint64, k trace.Kind) {
	if k == trace.IFetch {
		g.I.Access(addr)
		return
	}
	g.D.Access(addr)
}
