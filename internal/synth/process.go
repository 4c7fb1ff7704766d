package synth

import (
	"fmt"

	"mlcache/internal/trace"
)

// LineBytes is the granularity of the stack models: one line is the base
// machine's L1 block (4 words).
const LineBytes = 16

// ProcessConfig parameterizes one synthetic process.
type ProcessConfig struct {
	PID  uint16
	Seed int64
	// Base is the start of the process's address space. Code lives at
	// Base; data lives at Base + DataRegionOffset.
	Base uint64

	// Code and Data are the stack models for the instruction and data
	// streams.
	Code StackConfig
	Data StackConfig

	// DataRefProb is the probability that a cycle carries a data
	// reference (the paper: ~50%).
	DataRefProb float64
	// LoadFrac is the fraction of data references that are reads (the
	// paper: ~35%).
	LoadFrac float64

	// MeanIRunWords and MeanDRunWords are the mean sequential run lengths,
	// in words, of the instruction and data streams. Instruction streams
	// run long (branch every several instructions); data streams short.
	MeanIRunWords float64
	MeanDRunWords float64
}

// DataRegionOffset separates the code and data regions of a process.
const DataRegionOffset = 1 << 32

// Validate checks the configuration.
func (c ProcessConfig) Validate() error {
	if err := c.Code.Validate(); err != nil {
		return fmt.Errorf("code: %w", err)
	}
	if err := c.Data.Validate(); err != nil {
		return fmt.Errorf("data: %w", err)
	}
	if c.DataRefProb < 0 || c.DataRefProb > 1 {
		return fmt.Errorf("synth: data ref probability %v outside [0,1]", c.DataRefProb)
	}
	if c.LoadFrac < 0 || c.LoadFrac > 1 {
		return fmt.Errorf("synth: load fraction %v outside [0,1]", c.LoadFrac)
	}
	if c.MeanIRunWords < 1 || c.MeanDRunWords < 1 {
		return fmt.Errorf("synth: mean run lengths (%v, %v) must be >= 1 word", c.MeanIRunWords, c.MeanDRunWords)
	}
	return nil
}

// Process is an infinite reference stream for one synthetic program. It
// implements trace.Stream and never returns an error; bound it with
// trace.Limit.
//
// A process starts on its first Next: only then does it seed its generator
// from its own ProcessConfig.Seed and build its stacks. Nothing else draws
// from that generator, so when it starts cannot move a draw, and a process
// a mix never schedules costs nothing.
type Process struct {
	cfg    ProcessConfig
	rng    *rng // nil until the process starts
	code   *Stack
	data   *Stack
	iCont  float64 // probability an instruction run continues
	dCont  float64
	iaddr  uint64
	inRun  bool
	daddr  uint64
	dInRun bool
	// tables are the depth tables the process's stacks share with the
	// other processes of its Mix, if it has one.
	tables depthTables
	// pending holds a data reference to emit after the current ifetch.
	pending    trace.Ref
	hasPending bool
}

// NewProcess validates cfg and returns a process that starts on its first
// Next.
func NewProcess(cfg ProcessConfig) (*Process, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Process{
		cfg:    cfg,
		tables: depthTables{},
		iCont:  1 - 1/cfg.MeanIRunWords,
		dCont:  1 - 1/cfg.MeanDRunWords,
	}, nil
}

// start seeds the process's generator and builds its code stack, then its
// data stack, from it. NewProcess validated both stack configurations.
func (p *Process) start() {
	p.rng = newRNG(p.cfg.Seed)
	p.code = newStack(p.cfg.Code, p.rng, p.tables.get(p.cfg.Code))
	p.data = newStack(p.cfg.Data, p.rng, p.tables.get(p.cfg.Data))
}

// Next emits the next reference: an instruction fetch, optionally followed
// (on the subsequent call) by the data reference sharing its cycle.
func (p *Process) Next() (trace.Ref, error) { return p.next(), nil }

func (p *Process) next() trace.Ref {
	if p.hasPending {
		p.hasPending = false
		return p.pending
	}
	if p.rng == nil {
		p.start()
	}

	// Instruction fetch: continue the sequential run or start a new one
	// at a stack-sampled line.
	if p.inRun && p.rng.Float64() < p.iCont {
		p.iaddr += 4
	} else {
		line := p.code.Next()
		p.iaddr = p.cfg.Base + uint64(line)*LineBytes
		p.inRun = true
	}
	ref := trace.Ref{Kind: trace.IFetch, Addr: p.iaddr, PID: p.cfg.PID}

	// Data reference for the same cycle.
	if p.rng.Float64() < p.cfg.DataRefProb {
		if p.dInRun && p.rng.Float64() < p.dCont {
			p.daddr += 4
		} else {
			line := p.data.Next()
			p.daddr = p.cfg.Base + DataRegionOffset + uint64(line)*LineBytes +
				uint64(p.rng.Intn(LineBytes/4))*4
			p.dInRun = true
		}
		kind := trace.Store
		if p.rng.Float64() < p.cfg.LoadFrac {
			kind = trace.Load
		}
		p.pending = trace.Ref{Kind: kind, Addr: p.daddr, PID: p.cfg.PID}
		p.hasPending = true
	}
	return ref
}
