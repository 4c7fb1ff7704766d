package synth

import (
	"fmt"
	"math"

	"mlcache/internal/trace"
)

// MixConfig parameterizes a multiprogramming workload: several processes
// interleaved at context-switch intervals, as the paper's eight
// multiprogramming traces were.
type MixConfig struct {
	Processes []ProcessConfig
	// MeanSwitchRefs is the mean context-switch interval in references;
	// actual intervals are geometrically distributed. The paper
	// interleaved uniprocessor traces "to match the context switch
	// intervals seen in the VAX traces".
	MeanSwitchRefs int
	Seed           int64

	// System optionally models operating-system activity (the ATUM VAX
	// traces "contain system references"): a single shared kernel address
	// space entered in bursts from any process. Kernel code and data are
	// shared across processes, which is visible to physically-indexed
	// caches. Nil disables it.
	System *ProcessConfig
	// SystemFrac is the target fraction of cycles spent in the kernel
	// (bursts are geometric with mean SystemBurst cycles).
	SystemFrac  float64
	SystemBurst int
}

// validateSystem checks the optional system component.
func (c MixConfig) validateSystem() error {
	if c.System == nil {
		return nil
	}
	if err := c.System.Validate(); err != nil {
		return fmt.Errorf("system: %w", err)
	}
	if c.SystemFrac <= 0 || c.SystemFrac >= 1 {
		return fmt.Errorf("synth: system fraction %v outside (0,1)", c.SystemFrac)
	}
	if c.SystemBurst < 1 {
		return fmt.Errorf("synth: system burst %d must be positive", c.SystemBurst)
	}
	return nil
}

// Validate checks the configuration.
func (c MixConfig) Validate() error {
	if len(c.Processes) == 0 {
		return fmt.Errorf("synth: mix needs at least one process")
	}
	if c.MeanSwitchRefs <= 0 {
		return fmt.Errorf("synth: mean switch interval %d must be positive", c.MeanSwitchRefs)
	}
	for i, pc := range c.Processes {
		if err := pc.Validate(); err != nil {
			return fmt.Errorf("process %d: %w", i, err)
		}
	}
	return c.validateSystem()
}

// Mix is a multiprogrammed reference stream. It implements trace.Stream
// and is infinite; bound it with trace.Limit, or take a prefix with Fill.
// Context switches happen only at cycle boundaries (never between an
// ifetch and its data reference). Each process, the kernel's included,
// starts when the schedule first reaches it.
type Mix struct {
	cfg   MixConfig
	rng   *rng
	procs []*Process
	cur   int
	left  int
	pCont float64

	sys      *Process
	sysEnter float64 // per-cycle probability of entering the kernel
	sysCont  float64 // per-cycle probability a kernel burst continues
	inSys    bool
}

// NewMix constructs a multiprogramming mixer.
func NewMix(cfg MixConfig) (*Mix, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Mix{
		cfg:   cfg,
		rng:   newRNG(cfg.Seed),
		pCont: 1 - 1/float64(cfg.MeanSwitchRefs),
	}
	tables := depthTables{}
	for _, pc := range cfg.Processes {
		p, err := NewProcess(pc)
		if err != nil {
			return nil, err
		}
		p.tables = tables
		m.procs = append(m.procs, p)
	}
	if cfg.System != nil {
		sys, err := NewProcess(*cfg.System)
		if err != nil {
			return nil, err
		}
		sys.tables = tables
		m.sys = sys
		// Burst lengths are geometric with mean SystemBurst; to spend
		// SystemFrac of cycles in bursts, enter at rate
		// frac/((1-frac)·burst) per user cycle.
		m.sysCont = 1 - 1/float64(cfg.SystemBurst)
		m.sysEnter = cfg.SystemFrac / ((1 - cfg.SystemFrac) * float64(cfg.SystemBurst))
	}
	return m, nil
}

// MustNewMix is NewMix that panics on configuration errors.
func MustNewMix(cfg MixConfig) *Mix {
	m, err := NewMix(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Next returns the next reference of the interleaved stream.
func (m *Mix) Next() (trace.Ref, error) { return m.next(), nil }

// Fill writes the stream's next len(refs) references into refs: the
// references len(refs) calls of Next would return.
func (m *Mix) Fill(refs []trace.Ref) {
	for i := range refs {
		refs[i] = m.next()
	}
}

func (m *Mix) next() trace.Ref {
	// Kernel bursts: entered from (and attributed to) the current user
	// process, sharing one kernel address space. Transitions happen only
	// between cycles, so ifetch+data bundles stay intact.
	if m.sys != nil {
		if m.inSys && !m.sys.hasPending && m.rng.Float64() >= m.sysCont {
			m.inSys = false
		}
		if m.inSys {
			r := m.sys.next()
			r.PID = m.procs[m.cur].cfg.PID
			return r
		}
	}

	p := m.procs[m.cur]
	if !p.hasPending {
		// Switch processes only between cycles.
		if m.rng.Float64() >= m.pCont {
			m.cur = (m.cur + 1) % len(m.procs)
			p = m.procs[m.cur]
		}
		if m.sys != nil && m.rng.Float64() < m.sysEnter {
			m.inSys = true
			r := m.sys.next()
			r.PID = p.cfg.PID
			return r
		}
	}
	return p.next()
}

// Workload bundles a ready-made MixConfig approximating the paper's traces.
type Workload struct {
	Name string
	Cfg  MixConfig
}

// PaperMix returns the default multiprogramming workload used by the
// experiment drivers: four processes with disjoint address spaces, tuned so
// that (a) the solo read miss ratio falls by ≈0.69 per cache doubling over
// the 8 KB–1 MB range, and (b) a split 4 KB first level has a global read
// miss ratio near the paper's 10%. The seed selects one of arbitrarily
// many statistically identical traces.
func PaperMix(seed int64) MixConfig {
	var procs []ProcessConfig
	for i := 0; i < 4; i++ {
		procs = append(procs, ProcessConfig{
			PID:  uint16(i + 1),
			Seed: seed*101 + int64(i)*977,
			Base: uint64(i+1) << 36,
			// Footprints: 512 KB of code, 3 MB of data per process;
			// ~14 MB across the mix, so even a 4 MB L2 keeps missing
			// (the paper's miss-rate plateau for very large caches).
			Code: StackConfig{Lines: 32 * 1024, Alpha: 1.2, XM: 2.0},
			Data: StackConfig{Lines: 192 * 1024, Alpha: 1.2, XM: 6.4},
			// The paper's reference mix (§2).
			DataRefProb:   0.5,
			LoadFrac:      0.35,
			MeanIRunWords: 6,
			MeanDRunWords: 1.5,
		})
	}
	return MixConfig{
		Processes:      procs,
		MeanSwitchRefs: 20000,
		Seed:           seed,
	}
}

// PaperStream returns a bounded reference stream of n references drawn
// from the default workload.
func PaperStream(seed int64, n int64) trace.Stream {
	return trace.Limit(MustNewMix(PaperMix(seed)), n)
}

// MaxArenaRefs is the most references PaperArena writes. A 1 TiB arena of
// 16-byte references, it keeps the allocation within what make accepts on
// every 64-bit platform, and within int on 32-bit ones, so an absurd
// length is an error rather than a panic.
const MaxArenaRefs = min(1<<36, math.MaxInt/16)

// PaperArena returns the references PaperStream(seed, n) yields, written
// in place into an arena of exactly n references. It refuses an n below 1
// or above MaxArenaRefs.
func PaperArena(seed, n int64) (*trace.Arena, error) {
	if n < 1 {
		return nil, fmt.Errorf("synth: a workload of %d references; need at least 1", n)
	}
	if n > MaxArenaRefs {
		return nil, fmt.Errorf("synth: a workload of %d references exceeds %d", n, int64(MaxArenaRefs))
	}
	refs := make([]trace.Ref, n)
	MustNewMix(PaperMix(seed)).Fill(refs)
	return trace.NewArena(refs), nil
}

// PaperMixWithSystem returns the default workload extended with a shared
// kernel address space entered in bursts — approximating the ATUM traces'
// system references (the MIPS traces in the paper "do not contain system
// references"; the VAX ones do). sysFrac is the fraction of cycles spent
// in the kernel.
func PaperMixWithSystem(seed int64, sysFrac float64) MixConfig {
	cfg := PaperMix(seed)
	cfg.System = &ProcessConfig{
		PID:  0, // overridden per burst with the interrupted process's PID
		Seed: seed*101 + 31337,
		Base: 0xFFFF << 32, // one shared kernel space
		// The kernel: moderate code footprint, small hot data (stacks,
		// control blocks), long sequential handler runs.
		Code:          StackConfig{Lines: 16 * 1024, Alpha: 1.2, XM: 2.0},
		Data:          StackConfig{Lines: 32 * 1024, Alpha: 1.2, XM: 4.0},
		DataRefProb:   0.5,
		LoadFrac:      0.35,
		MeanIRunWords: 8,
		MeanDRunWords: 1.5,
	}
	cfg.SystemFrac = sysFrac
	cfg.SystemBurst = 150
	return cfg
}
