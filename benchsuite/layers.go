package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"mlcache/internal/cache"
	"mlcache/internal/checkpoint"
	"mlcache/internal/coord"
	"mlcache/internal/cpu"
	"mlcache/internal/experiments"
	"mlcache/internal/memsys"
	"mlcache/internal/serve"
	"mlcache/internal/stackdist"
	"mlcache/internal/store"
	"mlcache/internal/trace"
)

// probeInput is what a traced run's layer probes run on: the workload's
// own trace and a machine representative of it.
type probeInput struct {
	arena     *trace.Arena
	cfg       memsys.Config
	cpu       cpu.Config
	synthRefs int64  // references per trace.synth span of the set-up
	dir       string // scratch directory
	// stateDir, for service workloads, is the service's journal
	// directory; jobSpec and jobPoints describe one of its jobs.
	stateDir  string
	jobSpec   *coord.JobSpec
	jobPoints int
}

// probeReps is how many times each probe repeats; the metric is the
// median.
const probeReps = 3

// probeLayers times calls into each layer's public API on the probe input
// and returns the per-layer metrics that do not depend on the op loop.
// Every call is recorded as a span, and the timings are read back from
// the spans.
func probeLayers(tr *tracer, in probeInput) (map[string]float64, error) {
	m := map[string]float64{}
	refs := float64(in.arena.Len())

	buf := make([]trace.Ref, 4096)
	for i := 0; i < probeReps; i++ {
		tr.timed("trace.Cursor.ReadRefs", -1, 0, func() error {
			c := in.arena.Cursor()
			for {
				if _, err := c.ReadRefs(buf); err != nil {
					return nil
				}
			}
		})
	}

	hits, err := probeL1(tr, in)
	if err != nil {
		return nil, err
	}
	m["cache.l1_hit_ratio"] = float64(hits) / refs

	for i := 0; i < probeReps; i++ {
		if err := tr.timed("memsys.New", -1, 0, func() error {
			_, err := memsys.New(in.cfg)
			return err
		}); err != nil {
			return nil, err
		}
	}
	run, log, err := probeSimulation(tr, in)
	if err != nil {
		return nil, err
	}
	events := float64(len(log.Events))
	measured := float64(run.Instructions + run.Loads + run.Stores)
	m["memsys.down_events_per_kref"] = 1000 * events / refs
	m["wbuf.pushes_per_kref"], m["wbuf.full_stalls_per_kref"] = wbufPerKref(run.Mem, measured)
	m["bus.busy_share"] = float64(run.Mem.MemBusBusyCycles*busCycleNS(in.cfg)) / float64(run.TimeNS)
	m["mainmem.ops_per_kref"] = 1000 * float64(run.Mem.MemReads+run.Mem.MemWrites) / measured

	if err := tr.timed("stackdist.SplitGrid", -1, 0, func() error {
		g, err := stackdist.NewSplitGrid(32, experiments.Fig3Sizes(), []int{1, 2, 4, 8})
		if err != nil {
			return err
		}
		for _, r := range in.arena.Refs() {
			g.Access(r.Addr, r.Kind)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	if err := probeStorage(tr, in, run); err != nil {
		return nil, err
	}
	if in.jobSpec != nil {
		if err := probeArenaCache(tr, *in.jobSpec); err != nil {
			return nil, err
		}
	}
	runtime.GC()

	spans := tr.snapshot()
	med := func(name string) float64 { return median(durations(spans, name)) }
	ns := func(name string, per float64) float64 { return med(name) / per }
	ms := func(name string) float64 { return med(name) / 1e6 }
	us := func(name string) float64 { return med(name) / 1e3 }

	m["trace.synth_ns_per_ref"] = ns("trace.synth", float64(in.synthRefs))
	m["trace.cursor_ns_per_ref"] = ns("trace.Cursor.ReadRefs", refs)
	m["trace.artifact_write_ms"] = ms("trace.WriteArtifact")
	m["trace.artifact_open_ms"] = ms("trace.OpenArtifact")
	m["cache.l1_probe_ns_per_ref"] = ns("cache.Access", refs)
	m["memsys.new_us"] = us("memsys.New")
	m["cpu.run_ns_per_ref"] = ns("cpu.Run", refs)
	m["memsys.capture_ns_per_ref"] = ns("memsys.capture", refs)
	m["memsys.capture_overhead_ratio"] = med("memsys.capture")/med("cpu.Run") - 1
	m["memsys.replay_ns_per_event"] = ns("memsys.ReplayDown", events)
	// Derived, not measured: what a simulation costs beyond reading the
	// trace, probing the L1s and replaying the downstream events.
	m["cpu.residual_ns_per_ref"] = m["cpu.run_ns_per_ref"] - m["trace.cursor_ns_per_ref"] -
		m["cache.l1_probe_ns_per_ref"] - med("memsys.ReplayDown")/refs
	m["stackdist.grid_ns_per_ref"] = ns("stackdist.SplitGrid", refs)
	m["checkpoint.append_fsync_p50_us"] = us("checkpoint.Journal.Append")
	m["checkpoint.load_ms"] = ms("checkpoint.Load")
	m["store.add_ms"] = ms("store.FileStore.Add")
	m["store.resolve_us"] = us("store.FileStore.Resolve")
	m["serve.arena_acquire_cold_ms"] = ms("serve.ArenaCache.Acquire.cold")
	m["serve.arena_acquire_hit_us"] = us("serve.ArenaCache.Acquire.hit")
	return m, nil
}

// opLayers derives the per-layer metrics of the traced ops from their
// spans; passes is the number of trace passes per op.
func opLayers(m map[string]float64, spans []span, jobPoints int, passes float64) {
	ms := func(name string) float64 { return median(durations(spans, name)) / 1e6 }
	perOp := func(name string) float64 { return median(perJobTotals(spans, name)) / 1e9 }
	m["sweep.first_point_ms"] = ms("sweep.first_point")
	m["sweep.point_gap_p50_ms"] = ms("sweep.point_gap")
	m["sweep.trace_passes"] = passes
	for _, f := range []string{"fig3", "fig4", "fig5", "derived", "ablation", "l1opt", "modelcheck"} {
		m["experiments."+f+"_s"] = perOp("experiments." + f)
	}
	m["coord.runner_build_us"] = ms("coord.JobSpec.RunnerFor") * 1e3
	m["serve.ttfb_p50_ms"] = ms("serve.ttfb")
	m["serve.ttfp_p50_ms"] = ms("serve.ttfp")
	if jobPoints > 0 {
		m["serve.stream_us_per_point"] = ms("serve.stream") * 1e3 / float64(jobPoints)
	}
	m["serve.restart_ms"] = ms("serve.restart")
}

// probeL1 routes every reference to the L1I or L1D cache by kind, as the
// hierarchy does, and returns the hit count of the last pass.
func probeL1(tr *tracer, in probeInput) (int, error) {
	l1i, err := cache.New(in.cfg.L1I.Cache)
	if err != nil {
		return 0, err
	}
	l1d, err := cache.New(in.cfg.L1D.Cache)
	if err != nil {
		return 0, err
	}
	hits := 0
	for i := 0; i < probeReps; i++ {
		l1i.Reset()
		l1d.Reset()
		hits = 0
		tr.timed("cache.Access", -1, 0, func() error {
			for _, r := range in.arena.Refs() {
				c := l1d
				if r.Kind == trace.IFetch {
					c = l1i
				}
				if c.Access(r.Addr, r.Kind == trace.Store).Hit {
					hits++
				}
			}
			return nil
		})
	}
	return hits, nil
}

// probeSimulation times a plain simulation, the same simulation with the
// first-level boundary tapped, and the replay of that boundary log on a
// reset hierarchy, which must reproduce the simulated time exactly.
func probeSimulation(tr *tracer, in probeInput) (cpu.Result, *memsys.DownLog, error) {
	h, err := memsys.New(in.cfg)
	if err != nil {
		return cpu.Result{}, nil, err
	}
	var run cpu.Result
	for i := 0; i < probeReps; i++ {
		h.Reset()
		if err := tr.timed("cpu.Run", -1, 0, func() (err error) {
			run, err = cpu.Run(h, in.arena.Cursor(), in.cpu)
			return err
		}); err != nil {
			return run, nil, err
		}
	}
	var log *memsys.DownLog
	for i := 0; i < probeReps; i++ {
		h.Reset()
		rec := memsys.NewDownRecorder()
		c := in.cpu
		c.OnRecordingStart = rec.MarkRecordingStart
		if c.WarmupRefs == 0 {
			rec.MarkRecordingStart(0)
		}
		if err := tr.timed("memsys.capture", -1, 0, func() error {
			h.SetTap(rec)
			res, err := cpu.Run(h, in.arena.Cursor(), c)
			h.SetTap(nil)
			log = rec.Finish(res.TimeNS)
			return err
		}); err != nil {
			return run, nil, err
		}
	}
	for i := 0; i < probeReps; i++ {
		h.Reset()
		var got int64
		if err := tr.timed("memsys.ReplayDown", -1, 0, func() (err error) {
			got, err = h.ReplayDown(log, nil)
			return err
		}); err != nil {
			return run, nil, err
		}
		if got != run.TimeNS {
			return run, nil, fmt.Errorf("replayed time %d ns, simulated %d ns", got, run.TimeNS)
		}
	}
	return run, log, nil
}

// wbufPerKref sums pushes and full-buffer stalls over every write buffer
// of the hierarchy, per thousand measured references.
func wbufPerKref(s memsys.Stats, refs float64) (pushes, stalls float64) {
	var p, f int64
	for _, lvl := range s.Down {
		p += lvl.InBuf.Pushes
		f += lvl.InBuf.FullStalls
	}
	p += s.MemBuf.Pushes
	f += s.MemBuf.FullStalls
	return 1000 * float64(p) / refs, 1000 * float64(f) / refs
}

// busCycleNS is the backplane bus cycle memsys uses: the configured one,
// or the deepest cache level's.
func busCycleNS(cfg memsys.Config) int64 {
	if cfg.MemBusCycleNS > 0 {
		return cfg.MemBusCycleNS
	}
	return cfg.DeepestLevel().CycleNS
}

// probeStorage times the durable layers on the probe trace: writing and
// mapping it as an artifact, publishing it to a fresh store, resolving its
// digest, journaling a result with fsync, and loading a journal back.
func probeStorage(tr *tracer, in probeInput, run cpu.Result) error {
	dir, err := os.MkdirTemp(in.dir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "trace.mlca")
	var d store.Digest
	var fs *store.FileStore
	for i := 0; i < probeReps; i++ {
		art, err := writeAndOpenArtifact(tr, -1, path, in.arena)
		if err != nil {
			return err
		}
		if err := art.Close(); err != nil {
			return err
		}
		if fs, err = store.OpenFileStore(filepath.Join(dir, fmt.Sprint("store", i))); err != nil {
			return err
		}
		if err := tr.timed("store.FileStore.Add", -1, 0, func() (err error) {
			d, err = fs.Add(path)
			return err
		}); err != nil {
			return err
		}
	}
	for i := 0; i < 100; i++ {
		if err := tr.timed("store.FileStore.Resolve", -1, 0, func() error {
			_, err := fs.Resolve(d)
			return err
		}); err != nil {
			return err
		}
	}

	jpath := filepath.Join(dir, "probe.ckpt")
	j, err := checkpoint.Open(jpath)
	if err != nil {
		return err
	}
	for i := 0; i < 50; i++ {
		if err := tr.timed("checkpoint.Journal.Append", -1, 0, func() error {
			return j.Append(fmt.Sprint("point-", i), run)
		}); err != nil {
			j.Close()
			return err
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	// A service workload loads its own journal of every point; the others
	// load the probe journal just written.
	load := func() error {
		_, err := checkpoint.Load(jpath)
		return err
	}
	if in.stateDir != "" {
		load = func() error {
			_, err := checkpoint.LoadSegmented(in.stateDir, "results")
			return err
		}
	}
	for i := 0; i < probeReps; i++ {
		if err := tr.timed("checkpoint.Load", -1, 0, load); err != nil {
			return err
		}
	}
	return nil
}

// probeArenaCache times the service's workload cache: a miss maps the
// artifact, a hit shares the resident arena.
func probeArenaCache(tr *tracer, spec coord.JobSpec) error {
	var c *serve.ArenaCache
	acquire := func(name string) error {
		return tr.timed(name, -1, 0, func() error {
			wl, _, err := c.Acquire(spec)
			if err == nil {
				wl.Release()
			}
			return err
		})
	}
	for i := 0; i < probeReps; i++ {
		c = serve.NewArenaCache(0)
		if err := acquire("serve.ArenaCache.Acquire.cold"); err != nil {
			return err
		}
	}
	for i := 0; i < 20; i++ {
		if err := acquire("serve.ArenaCache.Acquire.hit"); err != nil {
			return err
		}
	}
	return nil
}
