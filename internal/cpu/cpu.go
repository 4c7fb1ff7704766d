// Package cpu models the paper's RISC-like processor: it executes one
// instruction fetch and zero or one data accesses on every clock cycle in
// which it is not waiting on the memory system. The CPU consumes a
// reference trace, presents each reference to a memsys.Hierarchy, and
// accounts execution time in nanoseconds and CPU cycles.
package cpu

import (
	"fmt"
	"io"
	"math/bits"

	"mlcache/internal/memsys"
	"mlcache/internal/trace"
)

// Config controls a simulation run.
type Config struct {
	// CycleNS is the CPU cycle time; it must match the hierarchy's.
	CycleNS int64
	// WarmupRefs references are simulated before statistics recording
	// begins, implementing the paper's cold-start handling. The warm-up
	// prefix is excluded from all counts, including execution time.
	WarmupRefs int64
	// FlushOnSwitch flushes the first-level caches whenever the trace's
	// PID changes, modeling virtually-indexed L1s. The paper's caches are
	// physical (no flush); this knob quantifies the choice.
	FlushOnSwitch bool
	// Interrupt, when non-nil, is polled once per reference batch (every
	// few thousand references); a non-nil return stops the run with that
	// error. The sweep engine points it at ctx.Err so cancellation and
	// per-point timeouts reach the hot loop without a wrapping stream.
	Interrupt func() error
	// OnRecordingStart, when non-nil, fires the moment statistics
	// recording turns on after the warm-up prefix, with the simulated time
	// at which measurement begins. It does NOT fire when WarmupRefs is
	// zero (recording is on from time 0 and there is no flip). The
	// one-pass planner uses it to align captured boundary logs with the
	// measurement window.
	OnRecordingStart func(nowNS int64)
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.CycleNS <= 0 {
		return fmt.Errorf("cpu: cycle time %d must be positive", c.CycleNS)
	}
	if c.WarmupRefs < 0 {
		return fmt.Errorf("cpu: warmup %d must be non-negative", c.WarmupRefs)
	}
	return nil
}

// Result reports a completed run. All counters cover the measured (post
// warm-up) portion of the trace.
type Result struct {
	// TimeNS is total execution time; Cycles is the same in CPU cycles.
	TimeNS int64
	Cycles int64
	// IdealNS is the execution time of the same instruction stream on a
	// perfect memory system (every access a first-level hit): one cycle
	// per issue slot plus the architectural extra write-hit cycle per
	// store. RelTime = TimeNS / IdealNS is the paper's relative execution
	// time; figures 4-1 through 4-4 plot it.
	IdealNS int64
	RelTime float64
	// CPI is cycles per instruction (instructions = ifetches).
	CPI float64

	Instructions int64
	Loads        int64
	Stores       int64
	// CPUReads = Instructions + Loads: the denominator of all global miss
	// ratios.
	CPUReads int64
	// Switches counts context switches acted upon (FlushOnSwitch only).
	Switches int64

	// PerPID breaks the run down by issuing process, for multiprogramming
	// analysis. Time is attributed to the process whose cycle incurred
	// it, including its miss stalls.
	PerPID map[uint16]PIDStats

	// StallHist is a log2 histogram of per-issue-slot stall times in CPU
	// cycles: bucket 0 counts stall-free slots, bucket i ≥ 1 counts
	// slots stalled in [2^(i-1), 2^i) cycles. It shows the *distribution*
	// behind the mean CPI — e.g. whether time is lost to many small L2
	// hits or few huge memory round trips.
	StallHist [16]int64

	Mem memsys.Stats
}

// PIDStats is the per-process slice of a Result.
type PIDStats struct {
	Instructions int64
	Loads        int64
	Stores       int64
	TimeNS       int64
}

// CPI returns the process's cycles per instruction given the CPU cycle
// time.
func (p PIDStats) CPI(cycleNS int64) float64 {
	if p.Instructions == 0 {
		return 0
	}
	return float64(p.TimeNS) / float64(cycleNS) / float64(p.Instructions)
}

// String summarizes the result in one line.
func (r Result) String() string {
	return fmt.Sprintf("instr=%d loads=%d stores=%d cycles=%d CPI=%.3f rel=%.3f",
		r.Instructions, r.Loads, r.Stores, r.Cycles, r.CPI, r.RelTime)
}

// stallBucket maps a stall in cycles to its histogram bucket: 0 for none,
// i ≥ 1 for [2^(i-1), 2^i), with the last bucket open-ended.
func stallBucket(cycles int64) int {
	if cycles <= 0 {
		return 0
	}
	return min(bits.Len64(uint64(cycles)), len(Result{}.StallHist)-1)
}

// StallAtMost returns the fraction of issue slots whose stall was below
// 2^bucket cycles — a cheap percentile view of the histogram.
func (r Result) StallAtMost(bucket int) float64 {
	var below, total int64
	for i, c := range r.StallHist {
		total += c
		if i <= bucket {
			below += c
		}
	}
	if total == 0 {
		return 0
	}
	return float64(below) / float64(total)
}

// batchRefs is how many references the issue loop pulls per refill.
// One Interrupt poll per batch keeps cancellation latency in the
// microseconds while staying entirely off the per-reference path. It is a
// variable only so tests can move the batch boundaries.
var batchRefs = 4096

// refSource feeds the issue loop in batches from one of two sources: an
// arena *trace.Cursor (zero-copy: each batch is a Chunk aliasing the
// arena) or any other trace.Stream (one Next call per reference, buffered
// here so the loop itself is identical). It provides the one-reference
// lookahead the issue model needs. A terminal error is sticky and
// delivered only after every already-buffered reference has been
// consumed, matching the stream semantics the loop always had.
type refSource struct {
	cur   *trace.Cursor
	s     trace.Stream
	check func() error
	// batch is the current batch and pos the next unread index in it;
	// store backs the batch for sources other than a Cursor.
	batch []trace.Ref
	store []trace.Ref
	pos   int
	err   error
}

func newRefSource(s trace.Stream, check func() error) *refSource {
	rs := &refSource{s: s, check: check}
	if cur, ok := s.(*trace.Cursor); ok {
		rs.cur = cur
	} else {
		rs.store = make([]trace.Ref, batchRefs)
	}
	return rs
}

// peek returns the next reference without consuming it (the caller
// advances rs.pos to consume it). It returns false once the source has
// ended; rs.err then says why (io.EOF at a clean end).
func (rs *refSource) peek() (trace.Ref, bool) {
	if rs.pos >= len(rs.batch) && !rs.refill() {
		return trace.Ref{}, false
	}
	return rs.batch[rs.pos], true
}

// refill is the out-of-line half of peek: it fetches the next batch once
// the current one has drained and reports whether it holds a reference.
// It leaves rs.err set once the source is exhausted or failed, or when the
// Interrupt hook fired. It stays out of line so that peek inlines into the
// issue loop.
//
//go:noinline
func (rs *refSource) refill() bool {
	if rs.err != nil {
		return false
	}
	if rs.check != nil {
		if rs.err = rs.check(); rs.err != nil {
			return false
		}
	}
	rs.pos = 0
	if rs.cur != nil {
		rs.batch, rs.err = rs.cur.Chunk(batchRefs)
	} else {
		n := 0
		for ; n < len(rs.store); n++ {
			r, err := rs.s.Next()
			if err != nil {
				rs.err = err
				break
			}
			rs.store[n] = r
		}
		rs.batch = rs.store[:n]
	}
	if len(rs.batch) > 0 {
		return true
	}
	if rs.err == nil {
		rs.err = io.ErrNoProgress
	}
	return false
}

// pidTally accumulates per-process statistics without touching a map on
// the per-reference path: traces issue long same-PID runs (round-robin
// time slicing), so a one-entry cache in front of a pointer map makes the
// common case a single comparison.
type pidTally struct {
	m      map[uint16]*PIDStats
	curPID uint16
	cur    *PIDStats
}

func newPIDTally() *pidTally { return &pidTally{m: map[uint16]*PIDStats{}} }

func (t *pidTally) get(pid uint16) *PIDStats {
	if t.cur != nil && pid == t.curPID {
		return t.cur
	}
	ps := t.m[pid]
	if ps == nil {
		ps = &PIDStats{}
		t.m[pid] = ps
	}
	t.curPID, t.cur = pid, ps
	return ps
}

func (t *pidTally) result() map[uint16]PIDStats {
	out := make(map[uint16]PIDStats, len(t.m))
	for pid, ps := range t.m {
		out[pid] = *ps
	}
	return out
}

// Run executes the trace on the hierarchy and returns the result. The
// hierarchy must be freshly constructed or Reset and must use the same CPU
// cycle time. When s is an arena *trace.Cursor the issue loop reads the
// arena in place, a few thousand references per chunk; any other Stream is
// buffered internally in batches of the same size, so results are
// identical either way.
func Run(h *memsys.Hierarchy, s trace.Stream, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if hc := h.Config().CPUCycleNS; hc != cfg.CycleNS {
		return Result{}, fmt.Errorf("cpu: cycle time %d does not match hierarchy's %d", cfg.CycleNS, hc)
	}

	rs := newRefSource(s, cfg.Interrupt)
	var res Result

	warmLeft := cfg.WarmupRefs
	recording := warmLeft == 0
	h.SetRecording(recording)

	var now int64 // end of the most recent cycle
	var startNS int64

	pids := newPIDTally()

	// note consumes bookkeeping for one reference.
	note := func(r trace.Ref) {
		if !recording {
			return
		}
		ps := pids.get(r.PID)
		switch r.Kind {
		case trace.IFetch:
			res.Instructions++
			res.CPUReads++
			ps.Instructions++
		case trace.Load:
			res.Loads++
			res.CPUReads++
			ps.Loads++
		case trace.Store:
			res.Stores++
			ps.Stores++
		}
	}

	var curPID uint16
	var sawRef bool

	for {
		r, ok := rs.peek()
		if !ok {
			if rs.err == io.EOF {
				break
			}
			res.PerPID = pids.result()
			return res, rs.err
		}
		rs.pos++

		if !recording && warmLeft == 0 {
			recording = true
			h.SetRecording(true)
			startNS = now
			if cfg.OnRecordingStart != nil {
				cfg.OnRecordingStart(now)
			}
		}

		if cfg.FlushOnSwitch {
			if sawRef && r.PID != curPID {
				now = h.FlushFirstLevels(now)
				if recording {
					res.Switches++
				}
			}
			curPID, sawRef = r.PID, true
		}

		// One issue slot: a base cycle carrying this reference and, when
		// the reference is an instruction fetch, at most one data access.
		slotStart := now
		now += cfg.CycleNS
		if recording {
			res.IdealNS += cfg.CycleNS
		}
		now = h.Access(r, now)
		note(r)
		refs := int64(1)
		slotStore := r.Kind == trace.Store

		if r.Kind == trace.IFetch {
			if d, ok := rs.peek(); ok && d.Kind != trace.IFetch {
				rs.pos++ // consume d
				now = h.Access(d, now)
				note(d)
				if d.Kind == trace.Store {
					slotStore = true
					if recording {
						// The architectural extra write-hit cycle is part
						// of the ideal machine too.
						res.IdealNS += cfg.CycleNS
					}
				}
				refs++
			}
		} else if recording && r.Kind == trace.Store {
			res.IdealNS += cfg.CycleNS
		}

		if recording {
			pids.get(r.PID).TimeNS += now - slotStart

			// The architectural store cycle is not a stall.
			base := cfg.CycleNS
			if slotStore {
				base += cfg.CycleNS
			}
			// Most slots are stall-free hits: bucket them without a
			// division.
			if stall := now - slotStart - base; stall < cfg.CycleNS {
				res.StallHist[0]++
			} else {
				res.StallHist[stallBucket(stall/cfg.CycleNS)]++
			}
		}

		if !recording {
			warmLeft -= refs
			if warmLeft < 0 {
				warmLeft = 0
			}
		}

		// With memsys.Config.CheckInvariants on, a violated cache-state
		// invariant stops the run within one issue slot; otherwise this is
		// a nil check.
		if err := h.InvariantErr(); err != nil {
			res.PerPID = pids.result()
			return res, err
		}
	}

	res.PerPID = pids.result()
	res.TimeNS = now - startNS
	res.Cycles = res.TimeNS / cfg.CycleNS
	if res.IdealNS > 0 {
		res.RelTime = float64(res.TimeNS) / float64(res.IdealNS)
	}
	if res.Instructions > 0 {
		res.CPI = float64(res.Cycles) / float64(res.Instructions)
	}
	res.Mem = h.Stats()
	return res, nil
}
