// Package optimal searches for the performance-optimal second-level cache
// under implementation constraints — the goal the paper states in its
// introduction: "to find the multi-level hierarchy that maximizes the
// overall performance while satisfying all the implementation
// constraints."
//
// The search combines the paper's two methods. A technology model maps
// each candidate organization (size, set size) to its achievable cycle
// time; a single profiling pass over the workload measures every
// candidate's miss ratio at once — the set-associative stack-distance
// grid gives the exact LRU miss count for each (size, associativity)
// point, and the same pass profiles the base machine's own first level
// for M_L1; Equation 1 then ranks all candidates analytically. The
// answer comes from full timing simulation of every candidate on the
// one-pass grid engine, which settles effects the analytical model
// cannot see (write buffering, bus contention, store traffic): the best
// candidate is the measured optimum, and the Equation 1 ranking stays
// beside it as the explanation.
package optimal

import (
	"fmt"
	"io"
	"math"
	"sort"

	"mlcache/internal/analytic"
	"mlcache/internal/cpu"
	"mlcache/internal/memsys"
	"mlcache/internal/stackdist"
	"mlcache/internal/sweep"
	"mlcache/internal/trace"
)

// Technology models the implementation cost of a cache organization: the
// achievable cycle time as a function of size and associativity. The
// paper's §4–§5 discussion corresponds to a constant cycle-time cost per
// size doubling plus a multiplexor penalty for associativity (the ~11 ns
// TTL 2:1 mux).
type Technology struct {
	// BaseCycleNS is the cycle time of a direct-mapped cache of
	// RefSizeBytes.
	BaseCycleNS  float64
	RefSizeBytes int64
	// NSPerDoubling is the cycle-time growth per size doubling.
	NSPerDoubling float64
	// AssocPenaltyNS is the cycle-time cost of making the cache
	// set-associative at all (the select multiplexor); it is charged once
	// for any set size above 1.
	AssocPenaltyNS float64
	// MinSizeBytes and MaxSizeBytes bound the search; the candidate sizes
	// are MinSizeBytes, a power of two, and its doublings up to
	// MaxSizeBytes.
	MinSizeBytes int64
	MaxSizeBytes int64
	// Assocs lists the set sizes to consider, each 0 (fully associative)
	// or a power of two; empty means {1}.
	Assocs []int
}

// Validate checks the technology model.
func (t Technology) Validate() error {
	if t.BaseCycleNS <= 0 {
		return fmt.Errorf("optimal: base cycle %v must be positive", t.BaseCycleNS)
	}
	if t.RefSizeBytes <= 0 {
		return fmt.Errorf("optimal: reference size %d must be positive", t.RefSizeBytes)
	}
	if t.NSPerDoubling < 0 || t.AssocPenaltyNS < 0 {
		return fmt.Errorf("optimal: negative cost terms")
	}
	if t.MinSizeBytes <= 0 || t.MaxSizeBytes < t.MinSizeBytes {
		return fmt.Errorf("optimal: size range [%d,%d] invalid", t.MinSizeBytes, t.MaxSizeBytes)
	}
	if t.MinSizeBytes&(t.MinSizeBytes-1) != 0 {
		return fmt.Errorf("optimal: minimum size %d is not a power of two", t.MinSizeBytes)
	}
	for _, a := range t.Assocs {
		if a < 0 || a&(a-1) != 0 {
			return fmt.Errorf("optimal: set size %d is neither 0 nor a power of two", a)
		}
	}
	return nil
}

// CycleNS returns the achievable cycle time for an organization, rounded
// up to a whole nanosecond.
func (t Technology) CycleNS(sizeBytes int64, assoc int) int64 {
	c := t.BaseCycleNS + t.NSPerDoubling*math.Log2(float64(sizeBytes)/float64(t.RefSizeBytes))
	if assoc != 1 {
		c += t.AssocPenaltyNS
	}
	if c < 1 {
		c = 1
	}
	return int64(math.Ceil(c))
}

// Candidate is one point of the search space.
type Candidate struct {
	SizeBytes int64
	Assoc     int
	CycleNS   int64
	// PredictedMiss is the profiled global read miss ratio at this size.
	PredictedMiss float64
	// PredictedRel is the Equation 1 execution-time estimate, relative to
	// the perfect-memory machine.
	PredictedRel float64
}

// String renders the candidate.
func (c Candidate) String() string {
	return fmt.Sprintf("%dKB %d-way @%dns", c.SizeBytes/1024, c.Assoc, c.CycleNS)
}

// Verified is a candidate with its simulation outcome.
type Verified struct {
	Candidate
	MeasuredRel float64
	Run         cpu.Result
}

// Config parameterizes a search.
type Config struct {
	// Base is the machine template; its Down[0] (the L2) is replaced by
	// each candidate. It must be a two-level configuration.
	Base memsys.Config
	Tech Technology
	// Arena is the workload. Phase 1 profiles its references in one pass
	// and phase 3 simulates every candidate over it.
	Arena *trace.Arena
	CPU   cpu.Config
}

// Result reports a completed search.
type Result struct {
	// MissModel is the power law fitted to the profiled miss curve.
	MissModel analytic.MissModel
	// ML1 is the profiled first-level global read miss ratio estimate.
	ML1 float64
	// Candidates lists every organization, sorted by predicted time.
	Candidates []Candidate
	// Simulated lists every candidate with its simulation outcome,
	// sorted by measured time.
	Simulated []Verified
	// Best is the measured winner, Simulated[0].
	Best Verified
}

// Search runs the optimization.
func Search(cfg Config) (Result, error) {
	var res Result
	if err := cfg.Tech.Validate(); err != nil {
		return res, err
	}
	if len(cfg.Base.Down) != 1 {
		return res, fmt.Errorf("optimal: base machine must have exactly one downstream level, got %d", len(cfg.Base.Down))
	}
	if cfg.Arena == nil {
		return res, fmt.Errorf("optimal: missing trace source")
	}

	// Phase 1: one pass over the read stream feeds several one-pass
	// engines at once: the fully-associative profiler (miss-model fit),
	// the exact set-associative grid over every candidate L2 geometry, a
	// fully-associative profiler at the L2 block size for assoc-0
	// candidates, and an exact profile of the base machine's own first
	// level for M_L1.
	assocs := cfg.Tech.Assocs
	if len(assocs) == 0 {
		assocs = []int{1}
	}
	var techSizes []int64
	for sz := cfg.Tech.MinSizeBytes; sz <= cfg.Tech.MaxSizeBytes; sz *= 2 {
		techSizes = append(techSizes, sz)
	}
	l2Block := int(cfg.Base.Down[0].Cache.BlockBytes)
	var setAssocs []int
	for _, a := range assocs {
		if a >= 1 {
			setAssocs = append(setAssocs, a)
		}
	}
	// The grid refuses any geometry a cache cannot be built with, so a
	// space it accepts is one every candidate of which simulates.
	var l2grid *stackdist.Grid
	var l2fa *stackdist.Profiler
	var err error
	if len(setAssocs) > 0 {
		if l2grid, err = stackdist.NewGrid(l2Block, techSizes, setAssocs); err != nil {
			return res, fmt.Errorf("optimal: %w", err)
		}
	}
	if len(setAssocs) < len(assocs) { // some candidate is fully associative
		if l2fa, err = stackdist.New(l2Block); err != nil {
			return res, fmt.Errorf("optimal: %w", err)
		}
	}
	l1prof := newL1Profile(cfg.Base)

	prof := stackdist.MustNew(16)
	var reads, stores int64
	for _, r := range cfg.Arena.Refs() {
		if r.Kind.IsRead() {
			prof.Access(r.Addr)
			if l2grid != nil {
				l2grid.Access(r.Addr)
			}
			if l2fa != nil {
				l2fa.Access(r.Addr)
			}
			l1prof.access(r.Addr, r.Kind)
			reads++
		} else {
			stores++
		}
	}
	if reads == 0 {
		return res, fmt.Errorf("optimal: workload contains no reads")
	}

	l1Size := firstLevelBytes(cfg.Base)
	res.ML1 = prof.MissRatioAtCapacity(l1Size / 16)
	if m, ok := l1prof.readMissRatio(); ok {
		res.ML1 = m
	}

	var sizes, ratios []float64
	for _, sz := range techSizes {
		m := prof.MissRatioAtCapacity(sz / 16)
		sizes = append(sizes, float64(sz))
		if m <= 0 {
			m = 1e-9
		}
		ratios = append(ratios, m)
	}
	if model, err := analytic.FitMissModel(sizes, ratios); err == nil {
		res.MissModel = model
	}

	// Phase 2: rank all candidates with Equation 1.
	cpuCyc := float64(cfg.Base.CPUCycleNS)
	nMM := memPenaltyNS(cfg.Base) / cpuCyc
	for _, sz := range techSizes {
		for _, a := range assocs {
			cyc := cfg.Tech.CycleNS(sz, a)
			// The L2 global miss ratio equals its solo (profiled) miss
			// ratio by the §3 independence result, which the one-pass
			// engines give exactly.
			miss := candidateMiss(l2grid, l2fa, l2Block, sz, a)
			p := analytic.ExecParams{
				Reads: float64(reads), Stores: float64(stores),
				NL1: 1, NL2: float64(cyc) / cpuCyc, NMM: nMM, TL1Write: 2,
				ML1: res.ML1, ML2: miss,
			}
			ideal := float64(reads) + 2*float64(stores)
			res.Candidates = append(res.Candidates, Candidate{
				SizeBytes:     sz,
				Assoc:         a,
				CycleNS:       cyc,
				PredictedMiss: miss,
				PredictedRel:  p.Total() / ideal,
			})
		}
	}
	sort.Slice(res.Candidates, func(i, j int) bool {
		a, b := res.Candidates[i], res.Candidates[j]
		return ranksBefore(a, b, a.PredictedRel, b.PredictedRel)
	})

	// Phase 3: simulate every candidate on the grid engine. They all share
	// the base machine's first level, so the planner runs it once and
	// replays its downstream traffic into each candidate L2.
	pts := make([]sweep.Point, len(res.Candidates))
	for i, c := range res.Candidates {
		pts[i] = sweep.Point{L2SizeBytes: c.SizeBytes, L2CycleNS: c.CycleNS, L2Assoc: c.Assoc}
	}
	runner := sweep.Runner{
		Configure: func(pt sweep.Point) memsys.Config {
			mcfg := cfg.Base
			mcfg.Down = append([]memsys.LevelConfig{}, cfg.Base.Down...)
			mcfg.Down[0].Cache.SizeBytes = pt.L2SizeBytes
			mcfg.Down[0].Cache.Assoc = pt.L2Assoc
			mcfg.Down[0].CycleNS = pt.L2CycleNS
			return mcfg
		},
		Arena: cfg.Arena,
		CPU:   cfg.CPU,
	}
	runs, err := runner.RunPoints(pts)
	if err != nil {
		return res, fmt.Errorf("optimal: %w", err)
	}
	res.Simulated = make([]Verified, len(runs))
	for i, r := range runs {
		res.Simulated[i] = Verified{Candidate: res.Candidates[i], MeasuredRel: r.Run.RelTime, Run: r.Run}
	}
	sort.Slice(res.Simulated, func(i, j int) bool {
		a, b := res.Simulated[i], res.Simulated[j]
		return ranksBefore(a.Candidate, b.Candidate, a.MeasuredRel, b.MeasuredRel)
	})
	res.Best = res.Simulated[0]
	return res, nil
}

// ranksBefore orders candidates a and b by their times ta and tb. Equal
// times prefer the smaller, then the less associative (cheaper)
// organization.
func ranksBefore(a, b Candidate, ta, tb float64) bool {
	if ta != tb {
		return ta < tb
	}
	if a.SizeBytes != b.SizeBytes {
		return a.SizeBytes < b.SizeBytes
	}
	return a.Assoc < b.Assoc
}

// candidateMiss returns the solo miss ratio of an L2 candidate from the
// one-pass engines: the set-associative grid for assoc ≥ 1, the
// fully-associative profiler at the L2 block size for assoc 0.
func candidateMiss(g *stackdist.Grid, fa *stackdist.Profiler, blockBytes int, sz int64, assoc int) float64 {
	if assoc == 0 {
		return fa.MissRatioAtCapacity(sz / int64(blockBytes))
	}
	m, _ := g.MissRatio(sz, assoc) // the grid was built over every candidate geometry
	return m
}

// l1Profile measures the base machine's first-level read miss ratio
// exactly in the profiling pass: one single-geometry grid per L1 side,
// routed by reference kind for a split first level. A first level the
// grid engine cannot represent (fully associative, non-power-of-two set
// count) yields a nil profile and Search keeps the fully-associative
// capacity estimate instead.
type l1Profile struct {
	i, d           *stackdist.Grid // i nil for a unified first level
	iSize, dSize   int64
	iAssoc, dAssoc int
}

func newL1Profile(base memsys.Config) *l1Profile {
	mk := func(lc memsys.LevelConfig) *stackdist.Grid {
		g, err := stackdist.NewGrid(int(lc.Cache.BlockBytes),
			[]int64{lc.Cache.SizeBytes}, []int{lc.Cache.Assoc})
		if err != nil {
			return nil
		}
		return g
	}
	if base.SplitL1 {
		ig, dg := mk(base.L1I), mk(base.L1D)
		if ig == nil || dg == nil {
			return nil
		}
		return &l1Profile{
			i: ig, d: dg,
			iSize: base.L1I.Cache.SizeBytes, iAssoc: base.L1I.Cache.Assoc,
			dSize: base.L1D.Cache.SizeBytes, dAssoc: base.L1D.Cache.Assoc,
		}
	}
	g := mk(base.L1)
	if g == nil {
		return nil
	}
	return &l1Profile{d: g, dSize: base.L1.Cache.SizeBytes, dAssoc: base.L1.Cache.Assoc}
}

// access records one read on the side its kind selects.
func (p *l1Profile) access(addr uint64, k trace.Kind) {
	if p == nil {
		return
	}
	if p.i != nil && k == trace.IFetch {
		p.i.Access(addr)
		return
	}
	p.d.Access(addr)
}

// readMissRatio returns the exact first-level global read miss ratio.
func (p *l1Profile) readMissRatio() (float64, bool) {
	if p == nil {
		return 0, false
	}
	var misses, total int64
	if p.i != nil {
		m, ok := p.i.Misses(p.iSize, p.iAssoc)
		if !ok {
			return 0, false
		}
		misses += m
		total += p.i.Total()
	}
	m, ok := p.d.Misses(p.dSize, p.dAssoc)
	if !ok {
		return 0, false
	}
	misses += m
	total += p.d.Total()
	if total == 0 {
		return 0, false
	}
	return float64(misses) / float64(total), true
}

func firstLevelBytes(cfg memsys.Config) int64 {
	if cfg.SplitL1 {
		return cfg.L1I.Cache.SizeBytes + cfg.L1D.Cache.SizeBytes
	}
	return cfg.L1.Cache.SizeBytes
}

// memPenaltyNS estimates the main-memory block fetch time of the machine:
// address beat + read + data beats at the deepest level's bus rate.
func memPenaltyNS(cfg memsys.Config) float64 {
	deep := cfg.DeepestLevel()
	busCycle := cfg.MemBusCycleNS
	if busCycle == 0 {
		busCycle = deep.CycleNS
	}
	width := cfg.MemBusWidthBytes
	if width == 0 {
		width = 16
	}
	beats := (deep.Cache.EffectiveFetchBytes() + width - 1) / width
	return float64(busCycle) + float64(cfg.Memory.ReadNS) + float64(int64(beats)*busCycle)
}

// Render writes a human-readable report of the search.
func Render(w io.Writer, res Result) error {
	fmt.Fprintf(w, "profiled M_L1 ≈ %.4f, miss curve alpha ≈ %.3f\n\n", res.ML1, res.MissModel.Alpha)
	fmt.Fprintln(w, "analytically ranked candidates (best first):")
	for i, c := range res.Candidates {
		if i >= 8 {
			fmt.Fprintf(w, "  ... and %d more\n", len(res.Candidates)-i)
			break
		}
		fmt.Fprintf(w, "  %-22s predicted rel %.4f (miss %.4f)\n", c.String(), c.PredictedRel, c.PredictedMiss)
	}
	fmt.Fprintln(w, "\nsimulated candidates (best first):")
	for i, v := range res.Simulated {
		if i >= 8 {
			fmt.Fprintf(w, "  ... and %d more\n", len(res.Simulated)-i)
			break
		}
		fmt.Fprintf(w, "  %-22s measured rel %.4f (predicted %.4f)\n", v.String(), v.MeasuredRel, v.PredictedRel)
	}
	_, err := fmt.Fprintf(w, "\nbest: %s\n", res.Best.String())
	return err
}
