package sweep

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"

	"mlcache/internal/cache"
	"mlcache/internal/cpu"
	"mlcache/internal/memsys"
)

// The engine is a one-pass planner. It splits a grid into *analytic* points
// — whose first-level boundary stream is a pure function of the trace, so
// they can be reproduced exactly by replaying a captured boundary log
// through their own downstream machinery — and *timing-sensitive* points
// that need a full end-to-end simulation. Analytic points sharing a first
// level form a group: one member (the pivot) simulates the trace once with
// a memsys.DownRecorder attached, and every other member replays the log,
// touching one event per first-level miss instead of one access per
// reference and never re-reading the trace. Results are bit-identical to
// full simulation (see internal/memsys/onepass.go); only the diagnostic
// PerPID and StallHist fields, which no table reads, are left empty on
// replayed points. See DESIGN.md §13.

// upstreamKey fingerprints everything that determines the first-level
// boundary stream: the first-level configuration and the CPU rate. Points
// with equal keys see identical boundary event sequences and may share one
// capture.
type upstreamKey struct {
	split        bool
	l1i, l1d, l1 memsys.LevelConfig
	cpuCycleNS   int64
}

func upstreamKeyOf(cfg memsys.Config) upstreamKey {
	if cfg.SplitL1 {
		return upstreamKey{split: true, l1i: cfg.L1I, l1d: cfg.L1D, cpuCycleNS: cfg.CPUCycleNS}
	}
	return upstreamKey{l1: cfg.L1, cpuCycleNS: cfg.CPUCycleNS}
}

// analyticReason classifies one point. An empty string means the point is
// analytic — its boundary stream is trace-determined and capture/replay is
// exact. A non-empty string names the first timing interaction that forces
// a full simulation.
func analyticReason(hcfg memsys.Config, ccfg cpu.Config) string {
	if ccfg.FlushOnSwitch {
		return "first-level flush on context switch"
	}
	if hcfg.CheckInvariants {
		return "invariant checking"
	}
	if hcfg.TLB.Entries > 0 {
		return "TLB translation"
	}
	if hcfg.CPUCycleNS != ccfg.CycleNS {
		return "CPU cycle mismatch"
	}
	firsts := []memsys.LevelConfig{hcfg.L1}
	if hcfg.SplitL1 {
		firsts = []memsys.LevelConfig{hcfg.L1I, hcfg.L1D}
	}
	for _, lc := range firsts {
		if lc.CycleNS != hcfg.CPUCycleNS {
			return "first level slower than CPU"
		}
		if lc.Prefetch {
			return "first-level prefetch"
		}
		if lc.Cache.Repl == cache.Random {
			return "random replacement"
		}
	}
	for _, lc := range hcfg.Down {
		if lc.Prefetch {
			return "downstream prefetch"
		}
		if lc.Cache.Repl == cache.Random {
			return "random replacement"
		}
	}
	return ""
}

// opGroup is one set of analytic points sharing a first level.
type opGroup struct {
	pivot int // index into pts/results of the capturing member
	log   *memsys.DownLog
	run   cpu.Result // the pivot's full result
}

// RunContext evaluates the given points on a worker pool and returns a
// result for every point, in input order, even when some fail. Per-point
// outcomes land in Result.Err rather than aborting the grid: a panic, an
// invalid configuration, or a timeout marks only its own point failed.
// Cancelling ctx (e.g. on SIGINT via signal.NotifyContext) stops workers at
// the next batch check and returns the completed prefix — the partial
// results are valid and, with Options.OnResult journaling them,
// resumable. The returned error is nil unless ctx was cancelled.
//
// Phase 1 fully simulates the timing-sensitive points and captures each
// group's pivot; phase 2 replays the other members from their pivot's log.
// A group whose pivot failed is demoted: its members are fully simulated
// in phase 2 instead.
func (r Runner) RunContext(ctx context.Context, pts []Point, opts Options) ([]Result, error) {
	if r.Configure == nil || r.Arena == nil {
		return nil, fmt.Errorf("sweep: Runner needs Configure and Arena")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	par := r.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	results := make([]Result, len(pts))
	for i, pt := range pts {
		results[i] = Result{Point: pt}
	}

	// Classification calls Configure once per point. A panic there is the
	// point's first attempt; the point then takes the full path, whose
	// retry loop calls Configure again while the budget lasts.
	cfgs := make([]*memsys.Config, len(pts))
	var phase1, phase2 []int
	byKey := map[upstreamKey][]int{}
	for i := range pts {
		res := &results[i]
		if opts.Skip != nil && opts.Skip(res.Point) {
			res.Skipped = true
			continue
		}
		cfg, err := r.configure(res.Point)
		if err != nil {
			res.Attempts, res.Err = 1, fmt.Errorf("sweep: point %v: %w", res.Point, err)
			phase1 = append(phase1, i)
			continue
		}
		cfgs[i] = &cfg
		if analyticReason(cfg, r.CPU) != "" {
			phase1 = append(phase1, i)
			continue
		}
		k := upstreamKeyOf(cfg)
		byKey[k] = append(byKey[k], i)
	}
	groupOf := make([]*opGroup, len(pts))
	for _, members := range byKey {
		// members[0] runs in phase 1: as its group's capturing pivot or,
		// alone, as a plain simulation, since a lone point gains nothing
		// from capture overhead.
		phase1 = append(phase1, members[0])
		if len(members) == 1 {
			continue
		}
		g := &opGroup{pivot: members[0]}
		for _, i := range members {
			groupOf[i] = g
		}
		phase2 = append(phase2, members[1:]...)
	}

	var onResultMu sync.Mutex
	work := func(ws *workerState, i int) {
		res := &results[i]
		g := groupOf[i]
		runPoint(ctx, opts, ws, res, func(interrupt func() error) (cpu.Result, error) {
			switch {
			case g == nil:
				cfg := cfgs[i]
				if cfg == nil { // Configure panicked during classification
					c := r.Configure(res.Point)
					cfg = &c
				}
				return r.simulate(*cfg, ws, nil, interrupt)
			case g.pivot == i:
				rec := memsys.NewDownRecorder()
				run, err := r.simulate(*cfgs[i], ws, rec, interrupt)
				if err == nil {
					g.log, g.run = rec.Finish(run.TimeNS), run
				}
				return run, err
			default:
				return replay(*cfgs[i], g, ws, interrupt)
			}
		})
		if res.Err == nil && opts.OnResult != nil {
			onResultMu.Lock()
			opts.OnResult(*res)
			onResultMu.Unlock()
		}
	}

	r.runPhase(ctx, par, orderByGeometry(pts, phase1), work)
	for _, i := range phase2 {
		if groupOf[i].log == nil {
			groupOf[i] = nil // demoted: the pivot's capture never completed
		}
	}
	r.runPhase(ctx, par, orderByGeometry(pts, phase2), work)

	if err := ctx.Err(); err != nil {
		// Points never attempted inherit the cancellation error so the
		// caller can tell "not run" from "ran and succeeded".
		for i := range results {
			if results[i].Attempts == 0 && !results[i].Skipped {
				results[i].Err = err
			}
		}
		return results, err
	}
	return results, nil
}

// configure calls r.Configure, converting a panic into a *PanicError.
func (r Runner) configure(pt Point) (cfg memsys.Config, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Point: pt, Value: p, Stack: debug.Stack()}
		}
	}()
	return r.Configure(pt), nil
}

// orderByGeometry sorts idxs in place and returns them regrouped so points
// sharing an L2 tag-array shape are adjacent, which keeps each worker's
// hierarchy reusable by ResetFor. The schedule never affects results.
func orderByGeometry(pts []Point, idxs []int) []int {
	sort.Ints(idxs)
	sub := make([]Point, len(idxs))
	for j, i := range idxs {
		sub[j] = pts[i]
	}
	out := make([]int, len(idxs))
	for j, p := range GeometryOrder(sub) {
		out[j] = idxs[p]
	}
	return out
}

// runPhase drains one phase's indices through a worker pool. Each worker
// owns one reusable hierarchy: neighbors that share cache geometry are
// evaluated by Reset instead of reallocating tag arrays, and with a
// Runner.Pool the hierarchy outlives this run for the next job over the
// same geometry.
func (r Runner) runPhase(ctx context.Context, par int, order []int, work func(*workerState, int)) {
	if len(order) == 0 {
		return
	}
	if par > len(order) {
		par = len(order)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := &workerState{pool: r.Pool}
			defer ws.retire()
			for i := range jobs {
				work(ws, i)
			}
		}()
	}
feed:
	for _, i := range order {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
}

// simulate runs one full simulation of hcfg over a fresh cursor on the
// runner's arena, on the worker's hierarchy. With rec non-nil the
// first-level boundary stream is captured into it as a byproduct.
func (r Runner) simulate(hcfg memsys.Config, ws *workerState, rec *memsys.DownRecorder, interrupt func() error) (cpu.Result, error) {
	h, err := ws.hierarchy(hcfg)
	if err != nil {
		return cpu.Result{}, err
	}
	cfg := r.CPU
	cfg.Interrupt = interrupt
	if rec != nil {
		h.SetTap(rec)
		defer h.SetTap(nil) // the hierarchy is reused for later points
		cfg.OnRecordingStart = rec.MarkRecordingStart
		if cfg.WarmupRefs == 0 {
			rec.MarkRecordingStart(0)
		}
	}
	return cpu.Run(h, r.Arena.Cursor(), cfg)
}

// replay evaluates one analytic point by replaying its group's boundary
// log through the point's own downstream machinery.
func replay(hcfg memsys.Config, g *opGroup, ws *workerState, interrupt func() error) (cpu.Result, error) {
	h, err := ws.hierarchy(hcfg)
	if err != nil {
		return cpu.Result{}, err
	}
	timeNS, err := h.ReplayDown(g.log, interrupt)
	if err != nil {
		return cpu.Result{}, err
	}
	return synthesizeReplay(g.run, h, timeNS, hcfg.CPUCycleNS), nil
}

// synthesizeReplay reconstructs a cpu.Result for a replayed point: the
// trace-determined counters come from the pivot (they are identical for
// every group member), the downstream statistics and execution time from
// the replay. PerPID and StallHist — per-slot diagnostics no table reads —
// are left empty; DESIGN.md §13 records the limitation.
func synthesizeReplay(pivot cpu.Result, h *memsys.Hierarchy, timeNS, cycleNS int64) cpu.Result {
	res := cpu.Result{
		TimeNS:       timeNS,
		Cycles:       timeNS / cycleNS,
		IdealNS:      pivot.IdealNS,
		Instructions: pivot.Instructions,
		Loads:        pivot.Loads,
		Stores:       pivot.Stores,
		CPUReads:     pivot.CPUReads,
		Switches:     pivot.Switches,
	}
	if res.IdealNS > 0 {
		res.RelTime = float64(res.TimeNS) / float64(res.IdealNS)
	}
	if res.Instructions > 0 {
		res.CPI = float64(res.Cycles) / float64(res.Instructions)
	}
	res.Mem = h.Stats()
	clone := func(ls *memsys.LevelStats) *memsys.LevelStats {
		if ls == nil {
			return nil
		}
		c := *ls
		return &c
	}
	// First-level state was never touched by the replay; it is
	// trace-determined and therefore the pivot's.
	res.Mem.L1I = clone(pivot.Mem.L1I)
	res.Mem.L1D = clone(pivot.Mem.L1D)
	res.Mem.L1 = clone(pivot.Mem.L1)
	return res
}
