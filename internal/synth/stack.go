// Package synth generates synthetic memory-reference traces that reproduce
// the aggregate locality statistics the paper's experiments depend on.
//
// The paper used eight large multiprogramming traces (ATUM VAX and
// interleaved MIPS R2000 traces), which are not available. What its results
// actually consume from those traces is a small set of statistics:
//
//   - a (solo) read miss ratio that falls by a near-constant factor per
//     cache-size doubling (≈0.69, i.e. miss ∝ size^-0.54) up to a plateau,
//   - a reference mix of one instruction fetch per cycle, a data reference
//     on ~50% of cycles, ~35% of data references being reads,
//   - sequential instruction runs and block-level spatial locality, and
//   - multiprogramming: several address spaces interleaved at context-
//     switch intervals.
//
// The generator reproduces these with an LRU-stack-distance model: each
// process keeps a move-to-front stack of cache-line identifiers and draws
// reuse depths from a truncated Pareto distribution, so that the stack
// distance tail — and hence the miss ratio of an LRU cache of any size —
// follows P(depth > n) ≈ (n/xm)^-alpha by construction. Sequential run
// structure is layered on top for instruction streams and block-level
// spatial locality.
package synth

import (
	"fmt"
	"math"
)

// StackConfig parameterizes one stack-distance model.
type StackConfig struct {
	// Lines is the footprint in cache lines. The stack is pre-populated
	// (in shuffled order) so the model is in steady state from the first
	// reference.
	Lines int
	// Alpha is the Pareto tail exponent: P(depth > n) ≈ (n/XM)^-Alpha.
	// The paper's traces correspond to roughly alpha = log2(1/0.69) ≈
	// 0.54 (a 31% miss reduction per size doubling).
	Alpha float64
	// XM is the Pareto scale parameter; larger values shift reuse deeper
	// and raise miss ratios uniformly.
	XM float64
}

// Validate checks the configuration.
func (c StackConfig) Validate() error {
	if c.Lines <= 0 {
		return fmt.Errorf("synth: stack lines %d must be positive", c.Lines)
	}
	if c.Lines > math.MaxInt32 {
		// Beyond 2^31-1 elements rand.Rand.Shuffle switches to a draw
		// that newStack, which reproduces it, does not have.
		return fmt.Errorf("synth: stack lines %d exceed %d", c.Lines, math.MaxInt32)
	}
	if !(c.Alpha > 0) {
		return fmt.Errorf("synth: alpha %v must be positive", c.Alpha)
	}
	if !(c.XM > 0) {
		return fmt.Errorf("synth: xm %v must be positive", c.XM)
	}
	return nil
}

// Stack is a move-to-front LRU stack with Pareto-distributed reuse depths.
//
// Its initial order is rand.Rand.Shuffle's permutation of the identity,
// settled lazily. Shuffle is Fisher–Yates from the top: the step for
// position i swaps it with some j ≤ i, and no later step touches i. So
// once the steps down to settled have run, every position from settled up
// holds its final id, and move-to-front, which moves only the positions
// from the one it reads up, never disturbs the rest. Next runs the steps
// only down to the deepest position a reference has reached.
type Stack struct {
	rng    *rng
	depths *depthTable
	// stack holds line ids, most recently used last. Below settled,
	// position i holds its id XOR i, so the zeroed allocation is the
	// identity.
	stack   []uint32
	settled int
	// shuffle is the generator as newStack found it, still to make
	// Shuffle's draws for the steps below settled.
	shuffle rng
}

// newStack constructs a pre-populated stack model of a valid cfg drawing
// from r, with depths the table of its XM and Alpha. The initial order is
// the permutation rand.Rand.Shuffle would make with r's draws, and r is
// left where Shuffle would leave it.
func newStack(cfg StackConfig, r *rng, depths *depthTable) *Stack {
	s := &Stack{
		rng:     r,
		depths:  depths,
		stack:   make([]uint32, cfg.Lines),
		settled: cfg.Lines,
		shuffle: *r,
	}
	r.skipShuffle(cfg.Lines)
	return s
}

// settle runs Shuffle's steps down to position to, so that every position
// from to up holds its id. Shuffle has no step for position 0, whose id
// XOR 0 is its id.
func (s *Stack) settle(to int) {
	st := s.stack
	for i := s.settled - 1; i >= max(to, 1); i-- {
		j := s.shuffle.int31n(uint32(i + 1))
		vi, vj := st[i]^uint32(i), st[j]^j
		st[j] = vi ^ j // first, so that j == i leaves vi at i
		st[i] = vj
	}
	s.settled = min(s.settled, to)
}

// sampleDepth draws a reuse depth in [1, len(stack)] from the truncated
// Pareto distribution: int(XM·u^(-1/Alpha)) for a uniform u in (0, 1).
func (s *Stack) sampleDepth() int {
	u := s.rng.Float64()
	for u == 0 {
		u = s.rng.Float64()
	}
	return s.depths.depth(u, len(s.stack))
}

// Next returns the line id of the next reference: the line at the sampled
// stack depth, moved to the top of the stack.
func (s *Stack) Next() uint32 { return s.moveToFront(s.sampleDepth()) }

// moveToFront returns the line at depth d in [1, Lines] and moves it to
// the top of the stack.
func (s *Stack) moveToFront(d int) uint32 {
	idx := len(s.stack) - d
	if idx < s.settled {
		s.settle(idx)
	}
	id := s.stack[idx]
	copy(s.stack[idx:], s.stack[idx+1:])
	s.stack[len(s.stack)-1] = id
	return id
}

// Depth tables. For u in (b(k+1), b(k)], where b(k) = (k/XM)^(-Alpha) is
// the u at which XM·u^(-1/Alpha) crosses k, the depth int(XM·u^(-1/Alpha))
// is k. A table holds the first tableDepths such intervals below u = 1,
// each with a guard band cut from both ends, and answers a draw in what is
// left of one with that interval's depth, no math.Pow call.
//
// That answer is exact. For u ≥ 2^-63, the smallest nonzero Float64, the
// computed XM·math.Pow(u, -1/Alpha) is within about 2^-48 of the true value
// (relative), or, for Alpha < 1, within about 2^-52/Alpha, math.Pow's
// repeated squaring of u by the integer part of 1/Alpha. A relative
// u-band of guardBand·max(1, Alpha) moves the true depth by at least
// 2^-30·max(1, 1/Alpha) relative, so every u the table answers has a true
// depth that far from every integer, and the computed one truncates to
// the same integer. A draw below the last boundary, inside a guard band or
// within the band below u = 1 (where the depth is near XM, an integer
// perhaps) takes math.Pow.
const (
	tableDepths = 256
	guardBand   = 0x1p-30
	// A table covers no u below minBoundary: 16 binades of cells at most.
	minBoundary = 0x1p-16
	// cellShift keeps a float's exponent and its top 8 mantissa bits: a
	// cell spans 1/256 of a binade.
	cellShift = 52 - 8
)

// depthTable maps a draw u to its depth for one (XM, Alpha).
type depthTable struct {
	xm, exp float64 // XM and -1/Alpha
	// steps[j] is the interval of depth int(XM)+j: a u with
	// lo < u < hi has that depth.
	steps []depthStep
	// floor is steps[len-1].lo: a u at or below it takes math.Pow.
	floor float64
	// cells[c] is the first step that a u above floor whose bits, shifted
	// right by cellShift, are key0+c can lie in.
	cells []uint8
	key0  uint64
}

// depthTables holds one table per (XM, Alpha), for the stacks of one Mix
// to share.
type depthTables map[[2]float64]*depthTable

// get returns cfg's table, building it on first use.
func (ts depthTables) get(cfg StackConfig) *depthTable {
	k := [2]float64{cfg.XM, cfg.Alpha}
	t := ts[k]
	if t == nil {
		t = newDepthTable(cfg.XM, cfg.Alpha)
		ts[k] = t
	}
	return t
}

type depthStep struct {
	lo, hi float64
	depth  int
}

// newDepthTable builds the table of one valid (xm, alpha). A table that
// would reach depths beyond any stack's lines, or whose first interval
// lies within its guard band, answers nothing.
func newDepthTable(xm, alpha float64) *depthTable {
	t := &depthTable{xm: xm, exp: -1 / alpha, floor: 1, steps: make([]depthStep, 0, tableDepths)}
	if xm > math.MaxInt32-tableDepths {
		return t
	}
	g := guardBand * max(1, alpha)
	m := int(xm)
	hi := 1 - g
	for j := 0; j < tableDepths; j++ {
		b := math.Pow(float64(m+j+1)/xm, -alpha)
		if b < minBoundary {
			break
		}
		t.steps = append(t.steps, depthStep{lo: b * (1 + g), hi: hi, depth: m + j})
		hi = b * (1 - g)
		t.floor = b * (1 + g)
	}
	if t.floor >= 1 {
		return t
	}
	// Each cell starts at the first step whose lo is below the cell's
	// largest u: every u in the cell stops there or later.
	t.key0 = math.Float64bits(t.floor) >> cellShift
	t.cells = make([]uint8, math.Float64bits(1)>>cellShift-t.key0)
	j := 0
	for c := len(t.cells) - 1; c >= 0; c-- {
		top := math.Float64frombits((t.key0+uint64(c)+1)<<cellShift - 1)
		for j < len(t.steps)-1 && top <= t.steps[j].lo {
			j++
		}
		t.cells[c] = uint8(j)
	}
	return t
}

// depth returns the depth of a draw u in (0, 1) on a stack of lines lines:
// int(XM·u^(-1/Alpha)), clamped to [1, lines].
func (t *depthTable) depth(u float64, lines int) int {
	d, ok := t.lookup(u)
	if !ok {
		// Clamp before converting: past 2^63 the conversion's result is
		// the implementation's (MinInt64 on amd64).
		f := t.xm * math.Pow(u, t.exp)
		if f >= float64(lines) {
			return lines
		}
		d = int(f)
	}
	return min(max(d, 1), lines)
}

// lookup returns the depth int(XM·u^(-1/Alpha)) of a u in (0, 1), or false
// where it must be computed.
func (t *depthTable) lookup(u float64) (int, bool) {
	if u <= t.floor {
		return 0, false
	}
	j := int(t.cells[math.Float64bits(u)>>cellShift-t.key0])
	for u <= t.steps[j].lo {
		j++
	}
	st := &t.steps[j]
	return st.depth, u < st.hi
}
