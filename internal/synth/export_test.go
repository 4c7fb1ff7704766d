package synth

import "math"

// MustNewProcess is NewProcess that panics on configuration errors.
func MustNewProcess(cfg ProcessConfig) *Process {
	p, err := NewProcess(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// NewStack constructs a stack model of cfg drawing from r, after
// validating cfg.
func NewStack(cfg StackConfig, r *rng) (*Stack, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newStack(cfg, r, newDepthTable(cfg.XM, cfg.Alpha)), nil
}

// MustNewStack is NewStack that panics on configuration errors.
func MustNewStack(cfg StackConfig, r *rng) *Stack {
	s, err := NewStack(cfg, r)
	if err != nil {
		panic(err)
	}
	return s
}

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

// Lines returns the footprint in lines.
func (s *Stack) Lines() int { return len(s.stack) }
