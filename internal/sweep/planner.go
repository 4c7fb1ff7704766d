package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

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
// replayed points.
//
// Members that also share the first downstream level's cache.Config form a
// tag group: one member's run records that level's tag outcomes in a
// memsys.TagScript and the others play it, so each L2 geometry's tag array
// is simulated once and the other cycle times replay timing only (see
// internal/memsys/tagscript.go). See DESIGN.md §13.

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

// tagGroup is one set of an opGroup's members that also share the first
// downstream level's cache.Config. Its tag pivot records the level's tag
// script, during the capture when it is the opGroup's pivot and during its
// replay otherwise, and the other members play the script. The probe, the
// last member in input order, plays right after the tag pivot on the same
// worker, so a group that diverges is found by one partial replay before
// the rest of its members start. Once a member diverges, members that have
// not started replay through their own tag arrays.
type tagGroup struct {
	pivot, probe int
	script       *memsys.TagScript
	diverged     atomic.Bool
	probed       chan struct{} // closed once the probe has run
}

// tagCounts tallies played replays and those demoted to plain replays.
type tagCounts struct {
	played, demoted atomic.Int64
}

// groupTags splits an opGroup's members by their first downstream level's
// cache.Config, points tagOf at the tag group of every member that shares
// it, and returns the members by phase: tag pivots other than the
// capturing pivot (members[0], in phase 1) and members without a tag group
// run in phase 2, played members other than probes in phase 3. A probe
// runs right after its tag pivot.
func groupTags(members []int, cfgs []*memsys.Config, tagOf []*tagGroup) (phase2, phase3 []int) {
	capture := members[0]
	byL2 := map[cache.Config][]int{}
	var keys []cache.Config
	for _, i := range members {
		if !memsys.Scriptable(*cfgs[i]) {
			if i != capture {
				phase2 = append(phase2, i)
			}
			continue
		}
		k := cfgs[i].Down[0].Cache
		if byL2[k] == nil {
			keys = append(keys, k)
		}
		byL2[k] = append(byL2[k], i)
	}
	for _, k := range keys {
		tm := byL2[k]
		if tm[0] != capture {
			phase2 = append(phase2, tm[0])
		}
		if len(tm) == 1 {
			continue
		}
		tg := &tagGroup{pivot: tm[0], probe: tm[len(tm)-1], probed: make(chan struct{})}
		for _, i := range tm {
			tagOf[i] = tg
		}
		phase3 = append(phase3, tm[1:len(tm)-1]...)
	}
	return phase2, phase3
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
// group's pivot, which also records its tag group's script; phase 2
// replays the other tag pivots, recording their scripts, and the members
// without a tag group; phase 3 plays the scripts for the remaining members.
// Each tag pivot plays its group's probe right after itself, and a tag
// group's phase-3 members start once its probe is done rather than at a
// barrier. A group whose capture failed is demoted: its members are fully
// simulated instead. A tag group whose script is missing or diverged
// replays through each member's own tag array.
func (r Runner) RunContext(ctx context.Context, pts []Point, opts Options) ([]Result, error) {
	return r.run(ctx, pts, opts, &tagCounts{})
}

// run is RunContext, tallying played and demoted replays in n.
func (r Runner) run(ctx context.Context, pts []Point, opts Options, n *tagCounts) ([]Result, error) {
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

	// Classification calls Configure once per point, and only here: a
	// panic there is the point's result.
	cfgs := make([]*memsys.Config, len(pts))
	var phase1, phase2, phase3 []int
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
	tagOf := make([]*tagGroup, len(pts))
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
		p2, p3 := groupTags(members, cfgs, tagOf)
		phase2 = append(phase2, p2...)
		phase3 = append(phase3, p3...)
	}

	var onResultMu sync.Mutex
	work := func(ws *workerState, i int) {
		res := &results[i]
		g, tg := groupOf[i], tagOf[i]
		runPoint(ctx, opts, ws, res, func(interrupt func() error) (cpu.Result, error) {
			switch {
			case g != nil && g.pivot == i:
				rec := memsys.NewDownRecorder()
				run, err := r.simulate(*cfgs[i], ws, rec, tg, interrupt)
				if err == nil {
					g.log, g.run = rec.Finish(run.TimeNS), run
				}
				return run, err
			case g == nil || g.log == nil: // alone, or demoted: the pivot's capture never completed
				return r.simulate(*cfgs[i], ws, nil, nil, interrupt)
			default:
				return replay(*cfgs[i], g, tg, i, ws, n, interrupt)
			}
		})
		if res.Err == nil && opts.OnResult != nil {
			onResultMu.Lock()
			opts.OnResult(*res)
			onResultMu.Unlock()
		}
	}
	// A tag pivot takes its probe along; other members of a tag group
	// start once the probe has shown whether the group's script holds.
	withProbe := func(ws *workerState, i int) {
		tg := tagOf[i]
		switch {
		case tg == nil:
			work(ws, i)
		case tg.pivot == i:
			defer close(tg.probed)
			work(ws, i)
			work(ws, tg.probe)
		default:
			select {
			case <-tg.probed:
			case <-ctx.Done(): // the probe may never run; runPoint reports ctx's error
			}
			work(ws, i)
		}
	}

	// The phases were gathered from a walk over a map: sort them so the
	// feed is the same on every run.
	slices.Sort(phase1)
	slices.Sort(phase2)
	slices.Sort(phase3)
	r.runPhase(ctx, par, phase1, withProbe)
	// Phase 3 follows phase 2 in one feed: every tag pivot is handed to a
	// worker before any played member, so a member waits at most for the
	// few tag pivots still running, never for a phase barrier.
	r.runPhase(ctx, par, append(phase2, phase3...), withProbe)

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

// runPhase drains one phase's indices through a worker pool. Each worker
// owns one hierarchy, which it builds for its first point and resets for
// each later one (workerState.hierarchy).
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
			ws := &workerState{}
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
// first-level boundary stream is captured into it as a byproduct, and with
// tg non-nil the tag group's script.
func (r Runner) simulate(hcfg memsys.Config, ws *workerState, rec *memsys.DownRecorder, tg *tagGroup, interrupt func() error) (cpu.Result, error) {
	h, err := ws.hierarchy(hcfg)
	if err != nil {
		return cpu.Result{}, err
	}
	cfg := r.CPU
	cfg.Interrupt = interrupt
	if rec != nil {
		h.SetTap(rec)
		cfg.OnRecordingStart = rec.MarkRecordingStart
		if cfg.WarmupRefs == 0 {
			rec.MarkRecordingStart(0)
		}
	}
	if tg == nil {
		return cpu.Run(h, r.Arena.Cursor(), cfg)
	}
	if err := h.RecordTags(); err != nil {
		return cpu.Result{}, err
	}
	run, err := cpu.Run(h, r.Arena.Cursor(), cfg)
	tg.keep(h, err)
	return run, err
}

// replay evaluates member i of an analytic group by replaying the group's
// boundary log through the member's own downstream machinery, playing its
// tag group's script when there is one. A member whose played replay
// diverges is replayed again through its own tag array.
func replay(hcfg memsys.Config, g *opGroup, tg *tagGroup, i int, ws *workerState, n *tagCounts, interrupt func() error) (cpu.Result, error) {
	h, err := ws.hierarchy(hcfg)
	if err != nil {
		return cpu.Result{}, err
	}
	timeNS, err := tg.replay(h, g.log, i, n, interrupt)
	if errors.Is(err, memsys.ErrTagDiverged) {
		if h, err = ws.hierarchy(hcfg); err != nil {
			return cpu.Result{}, err
		}
		timeNS, err = h.ReplayDown(g.log, interrupt)
	}
	if err != nil {
		return cpu.Result{}, err
	}
	return synthesizeReplay(g.run, h, timeNS, hcfg.CPUCycleNS), nil
}

// replay replays member i on h: recording the script when i is the tag
// pivot, playing it when it is ready and no member has diverged, and
// through h's own tag array otherwise (always when tg is nil).
func (tg *tagGroup) replay(h *memsys.Hierarchy, log *memsys.DownLog, i int, n *tagCounts, interrupt func() error) (int64, error) {
	switch {
	case tg == nil || tg.pivot != i && (tg.script == nil || tg.diverged.Load()):
		return h.ReplayDown(log, interrupt)
	case tg.pivot == i:
		if err := h.RecordTags(); err != nil {
			return 0, err
		}
		timeNS, err := h.ReplayDown(log, interrupt)
		tg.keep(h, err)
		return timeNS, err
	}
	timeNS, err := h.PlayTags(log, tg.script, interrupt)
	switch {
	case err == nil:
		n.played.Add(1)
	case errors.Is(err, memsys.ErrTagDiverged):
		tg.diverged.Store(true)
		n.demoted.Add(1)
	}
	return timeNS, err
}

// keep takes the script h recorded and stores it when the run succeeded;
// h holds no script afterwards either way.
func (tg *tagGroup) keep(h *memsys.Hierarchy, err error) {
	if s := h.TagScript(); err == nil {
		tg.script = s
	}
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
