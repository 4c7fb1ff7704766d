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
		// that NewStack, which reproduces it, does not have.
		return fmt.Errorf("synth: stack lines %d exceed %d", c.Lines, math.MaxInt32)
	}
	if c.Alpha <= 0 {
		return fmt.Errorf("synth: alpha %v must be positive", c.Alpha)
	}
	if c.XM <= 0 {
		return fmt.Errorf("synth: xm %v must be positive", c.XM)
	}
	return nil
}

// Stack is a move-to-front LRU stack with Pareto-distributed reuse depths.
type Stack struct {
	cfg StackConfig
	rng *rng
	// stack holds line ids, most recently used last.
	stack []uint32
}

// NewStack constructs a pre-populated stack model drawing from r. The
// initial order is the permutation rand.Rand.Shuffle would make with r's
// draws, and leaves r where Shuffle would.
func NewStack(cfg StackConfig, r *rng) (*Stack, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st := make([]uint32, cfg.Lines)
	for i := range st {
		st[i] = uint32(i)
	}
	for i := len(st) - 1; i > 0; i-- {
		// Shuffle's draw of j in [0, n) for n < 2^31 (rand.Rand.int31n):
		// Lemire's multiply-shift over Uint32, redrawing while the low
		// half falls below 2^32 mod n. Like math/rand, it computes that
		// bound only for a low half below n, which every smaller one is.
		n := uint32(i + 1)
		prod := uint64(uint32(r.Int63()>>31)) * uint64(n)
		for low := uint32(prod); low < n && low < -n%n; low = uint32(prod) {
			prod = uint64(uint32(r.Int63()>>31)) * uint64(n)
		}
		j := prod >> 32
		st[i], st[j] = st[j], st[i]
	}
	return &Stack{cfg: cfg, rng: r, stack: st}, nil
}

// MustNewStack is NewStack that panics on configuration errors.
func MustNewStack(cfg StackConfig, r *rng) *Stack {
	s, err := NewStack(cfg, r)
	if err != nil {
		panic(err)
	}
	return s
}

// sampleDepth draws a reuse depth in [1, len(stack)] from the truncated
// Pareto distribution.
func (s *Stack) sampleDepth() int {
	u := s.rng.Float64()
	for u == 0 {
		u = s.rng.Float64()
	}
	d := int(s.cfg.XM * math.Pow(u, -1/s.cfg.Alpha))
	if d < 1 {
		d = 1
	}
	if d > len(s.stack) {
		d = len(s.stack)
	}
	return d
}

// Next returns the line id of the next reference: the line at the sampled
// stack depth, moved to the top of the stack.
func (s *Stack) Next() uint32 {
	d := s.sampleDepth()
	idx := len(s.stack) - d
	id := s.stack[idx]
	copy(s.stack[idx:], s.stack[idx+1:])
	s.stack[len(s.stack)-1] = id
	return id
}

// Lines returns the footprint in lines.
func (s *Stack) Lines() int { return len(s.stack) }

// TailProb returns the model's analytical P(depth > n): the expected miss
// ratio of a fully-associative LRU cache holding n of this stack's lines.
func (c StackConfig) TailProb(n int) float64 {
	if n <= 0 {
		return 1
	}
	if n >= c.Lines {
		return 0
	}
	p := math.Pow(float64(n)/c.XM, -c.Alpha)
	if p > 1 {
		return 1
	}
	return p
}
