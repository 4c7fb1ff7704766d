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
	// MeanSwitchCycles is the mean context-switch interval in cycles (an
	// instruction fetch and the data reference it may carry); actual
	// intervals are geometrically distributed. With processes whose
	// DataRefProb is p, an interval spans about (1+p)× as many
	// references. The paper interleaved uniprocessor traces "to match the
	// context switch intervals seen in the VAX traces".
	MeanSwitchCycles int
	Seed             int64
}

// Validate checks the configuration.
func (c MixConfig) Validate() error {
	if len(c.Processes) == 0 {
		return fmt.Errorf("synth: mix needs at least one process")
	}
	if c.MeanSwitchCycles <= 0 {
		return fmt.Errorf("synth: mean switch interval %d must be positive", c.MeanSwitchCycles)
	}
	for i, pc := range c.Processes {
		if err := pc.Validate(); err != nil {
			return fmt.Errorf("process %d: %w", i, err)
		}
	}
	return nil
}

// Mix is a multiprogrammed reference stream. It implements trace.Stream
// and is infinite; bound it with trace.Limit, or take a prefix with Fill.
// Context switches happen only at cycle boundaries (never between an
// ifetch and its data reference). Each process starts when the schedule
// first reaches it.
type Mix struct {
	rng   *rng
	procs []*Process
	cur   int
	pCont float64
}

// NewMix constructs a multiprogramming mixer.
func NewMix(cfg MixConfig) (*Mix, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Mix{
		rng:   newRNG(cfg.Seed),
		pCont: 1 - 1/float64(cfg.MeanSwitchCycles),
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
	p := m.procs[m.cur]
	// Switch processes only between cycles.
	if !p.hasPending && m.rng.Float64() >= m.pCont {
		m.cur = (m.cur + 1) % len(m.procs)
		p = m.procs[m.cur]
	}
	return p.next()
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
		Processes:        procs,
		MeanSwitchCycles: 20000,
		Seed:             seed,
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
