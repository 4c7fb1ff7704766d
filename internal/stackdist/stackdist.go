// Package stackdist computes LRU stack-distance profiles in a single pass
// over a reference trace (Mattson, Gecsei, Slutz & Traiger's one-pass
// technique — Gecsei's multilevel variant is reference [5] of the paper).
// One profile yields the miss ratio of a fully-associative LRU cache of
// *every* capacity simultaneously, which is how miss-rate-versus-size
// curves like Figure 3-1 are obtained without one simulation per size.
//
// The implementation keeps the classic structure: a hash map from block to
// the (virtual) time of its previous access, and a Fenwick tree over time
// slots marking which slots are still the most recent access of some
// block. The stack distance of a reference is the number of marked slots
// after its previous access time. Time slots are compacted when the tree
// fills, so memory is proportional to the number of distinct blocks, not
// trace length.
package stackdist

import "fmt"

// Profiler accumulates a stack-distance histogram. The zero value is not
// ready; use New.
type Profiler struct {
	blockBits uint
	last      map[uint64]int32 // block -> time slot of previous access
	tree      *fenwick
	blockOf   []uint64 // time slot -> block (for compaction)
	now       int32    // next time slot
	marked    int32

	// exact[d] counts references with stack distance d (capped); deeper
	// distances fall into log2 buckets. cold counts first-ever accesses.
	exact []int64
	deep  []int64 // bucket i: distances in [exactCap*2^i, exactCap*2^(i+1))
	cold  int64
	total int64
}

// exactCap is the largest distance tracked exactly (64K blocks = 1 MB of
// 16-byte lines), chosen to cover the paper's cache-size range precisely.
const exactCap = 1 << 16

// New returns a profiler that maps addresses to blocks of blockBytes
// (a power of two).
func New(blockBytes int) (*Profiler, error) {
	if blockBytes <= 0 || blockBytes&(blockBytes-1) != 0 {
		return nil, fmt.Errorf("stackdist: block size %d must be a positive power of two", blockBytes)
	}
	bits := uint(0)
	for b := blockBytes; b > 1; b >>= 1 {
		bits++
	}
	return &Profiler{
		blockBits: bits,
		last:      make(map[uint64]int32),
		tree:      newFenwick(1 << 16),
		blockOf:   make([]uint64, 1<<16),
		exact:     make([]int64, exactCap),
		deep:      make([]int64, 24),
	}, nil
}

// MustNew is New that panics on bad configuration.
func MustNew(blockBytes int) *Profiler {
	p, err := New(blockBytes)
	if err != nil {
		panic(err)
	}
	return p
}

// Access records one reference.
func (p *Profiler) Access(addr uint64) {
	block := addr >> p.blockBits
	p.total++

	if prev, ok := p.last[block]; ok {
		// Distance = marked slots strictly after prev (excluding prev
		// itself, which is this block's own slot), plus one for the block
		// itself: the conventional 1-based stack distance where an
		// immediate re-reference has distance 1.
		d := int64(p.tree.suffixSum(prev+1)) + 1
		p.record(d)
		p.tree.clear(prev)
		p.marked--
	} else {
		p.cold++
	}

	if p.now == int32(p.tree.size()) {
		p.compact()
	}
	p.tree.set(p.now)
	p.blockOf[p.now] = block
	p.last[block] = p.now
	p.now++
	p.marked++
}

func (p *Profiler) record(d int64) {
	if d < exactCap {
		p.exact[d]++
		return
	}
	bucket := 0
	for v := d / exactCap; v > 1 && bucket < len(p.deep)-1; v >>= 1 {
		bucket++
	}
	p.deep[bucket]++
}

// compact renumbers the marked time slots to 0..marked-1, freeing space in
// the tree. Amortized cost is O(log n) per access.
func (p *Profiler) compact() {
	size := p.tree.size()
	newSize := size
	if int32(size)/2 < p.marked+1 {
		newSize = size * 2 // mostly-live tree: grow instead of thrash
	}
	nt := newFenwick(newSize)
	nb := make([]uint64, newSize)
	var w int32
	for i := int32(0); i < p.now; i++ {
		if p.tree.get(i) {
			block := p.blockOf[i]
			nt.set(w)
			nb[w] = block
			p.last[block] = w
			w++
		}
	}
	p.tree = nt
	p.blockOf = nb
	p.now = w
}

// Total returns the number of references profiled.
func (p *Profiler) Total() int64 { return p.total }

// Cold returns the number of first-ever (compulsory) references.
func (p *Profiler) Cold() int64 { return p.cold }

// DistinctBlocks returns the number of distinct blocks seen.
func (p *Profiler) DistinctBlocks() int64 { return int64(len(p.last)) }

// MissesAtCapacity returns the number of references that would miss in a
// fully-associative LRU cache holding capacityBlocks blocks: references
// with stack distance greater than the capacity, plus all cold references.
// Exact for capacities below 64 Ki blocks; deeper capacities use the log2
// bucket bounds (upper bound returned).
func (p *Profiler) MissesAtCapacity(capacityBlocks int64) int64 {
	misses := p.cold
	if capacityBlocks < 1 {
		capacityBlocks = 0
	}
	if capacityBlocks < exactCap {
		for d := capacityBlocks + 1; d < exactCap; d++ {
			misses += p.exact[d]
		}
		for _, c := range p.deep {
			misses += c
		}
		return misses
	}
	// Capacity inside the deep buckets: a bucket covering [lo, 2·lo)
	// contributes whenever any of its distances can exceed the capacity,
	// so the result is an upper bound on the true miss count.
	for i, c := range p.deep {
		hi := int64(exactCap)<<uint(i+1) - 1
		if hi > capacityBlocks {
			misses += c
		}
	}
	return misses
}

// MissRatioAtCapacity returns MissesAtCapacity over total references.
func (p *Profiler) MissRatioAtCapacity(capacityBlocks int64) float64 {
	if p.total == 0 {
		return 0
	}
	return float64(p.MissesAtCapacity(capacityBlocks)) / float64(p.total)
}

// Curve returns (size, missRatio) points for cache sizes from loBytes to
// hiBytes in power-of-two steps, given the profiled block size.
func (p *Profiler) Curve(blockBytes int, loBytes, hiBytes int64) (sizes []int64, ratios []float64) {
	for s := loBytes; s <= hiBytes; s *= 2 {
		sizes = append(sizes, s)
		ratios = append(ratios, p.MissRatioAtCapacity(s/int64(blockBytes)))
	}
	return sizes, ratios
}

// Bin is one row of the stack-distance histogram: Count references had a
// distance in [Lo, Hi]. Exact distances (below 64 Ki) have Lo == Hi; deeper
// distances report their log2 bucket bounds.
type Bin struct {
	Lo, Hi int64
	Count  int64
}

// Histogram returns the nonzero histogram bins in ascending distance order.
// Cold (compulsory) references are not binned; see Cold.
func (p *Profiler) Histogram() []Bin {
	var out []Bin
	for d, c := range p.exact {
		if c != 0 {
			out = append(out, Bin{Lo: int64(d), Hi: int64(d), Count: c})
		}
	}
	for i, c := range p.deep {
		if c != 0 {
			lo := int64(exactCap) << uint(i)
			out = append(out, Bin{Lo: lo, Hi: 2*lo - 1, Count: c})
		}
	}
	return out
}

// fenwick is a binary indexed tree over {0,1} slots with suffix sums.
type fenwick struct {
	bits []int32
	vals []bool
}

func newFenwick(n int) *fenwick {
	return &fenwick{bits: make([]int32, n+1), vals: make([]bool, n)}
}

func (f *fenwick) size() int { return len(f.vals) }

func (f *fenwick) get(i int32) bool { return f.vals[i] }

func (f *fenwick) add(i int32, delta int32) {
	for j := i + 1; j <= int32(len(f.vals)); j += j & (-j) {
		f.bits[j] += delta
	}
}

func (f *fenwick) set(i int32) {
	if !f.vals[i] {
		f.vals[i] = true
		f.add(i, 1)
	}
}

func (f *fenwick) clear(i int32) {
	if f.vals[i] {
		f.vals[i] = false
		f.add(i, -1)
	}
}

// prefixSum returns the number of set slots in [0, i).
func (f *fenwick) prefixSum(i int32) int32 {
	var s int32
	for j := i; j > 0; j -= j & (-j) {
		s += f.bits[j]
	}
	return s
}

// suffixSum returns the number of set slots in [i, size).
func (f *fenwick) suffixSum(i int32) int32 {
	return f.prefixSum(int32(len(f.vals))) - f.prefixSum(i)
}
