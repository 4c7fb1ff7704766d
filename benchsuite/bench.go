package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics an untraced run reports, on every workload.
// An "op" is the workload's unit of work (see README.md): one simulation,
// one grid, one paper reproduction, or one service job. Times are scaled
// to the reference host's speed (calib.go). op_p50_ms has a bound of 0.20
// because even scaled, a ten-second run's median on a shared two-core host
// moves by several percent between runs (README.md gives the spreads).
var endToEnd = []metricDef{
	{"op_p50_ms", "ms", "lower", 0.20},
	{"retained_heap_mb", "MiB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics a traced run reports, on every workload. A
// layer the workload's operation never calls reports 0.
var perLayer = []metricDef{
	{"trace.synth_ns_per_ref", "ns/ref", "lower", 0},
	{"trace.cursor_ns_per_ref", "ns/ref", "lower", 0},
	{"trace.artifact_write_ms", "ms", "lower", 0},
	{"trace.artifact_open_ms", "ms", "lower", 0},
	{"cache.l1_probe_ns_per_ref", "ns/ref", "lower", 0},
	{"cache.l1_hit_ratio", "ratio", "higher", 0},
	{"memsys.new_us", "us", "lower", 0},
	{"memsys.capture_ns_per_ref", "ns/ref", "lower", 0},
	{"memsys.capture_overhead_ratio", "ratio", "lower", 0},
	{"memsys.down_events_per_kref", "count/kref", "lower", 0},
	{"memsys.replay_ns_per_event", "ns/event", "lower", 0},
	{"cpu.run_ns_per_ref", "ns/ref", "lower", 0},
	{"cpu.residual_ns_per_ref", "ns/ref", "lower", 0},
	{"wbuf.pushes_per_kref", "count/kref", "lower", 0},
	{"wbuf.full_stalls_per_kref", "count/kref", "lower", 0},
	{"bus.busy_share", "ratio", "lower", 0},
	{"mainmem.ops_per_kref", "count/kref", "lower", 0},
	{"stackdist.grid_ns_per_ref", "ns/ref", "lower", 0},
	{"sweep.first_point_ms", "ms", "lower", 0},
	{"sweep.point_gap_p50_ms", "ms", "lower", 0},
	{"sweep.trace_passes", "count", "lower", 0},
	{"experiments.fig3_s", "s", "lower", 0},
	{"experiments.fig4_s", "s", "lower", 0},
	{"experiments.fig5_s", "s", "lower", 0},
	{"experiments.derived_s", "s", "lower", 0},
	{"experiments.ablation_s", "s", "lower", 0},
	{"experiments.l1opt_s", "s", "lower", 0},
	{"experiments.modelcheck_s", "s", "lower", 0},
	{"coord.runner_build_us", "us", "lower", 0},
	{"serve.ttfb_p50_ms", "ms", "lower", 0},
	{"serve.ttfp_p50_ms", "ms", "lower", 0},
	{"serve.stream_us_per_point", "us/point", "lower", 0},
	{"serve.restart_ms", "ms", "lower", 0},
	{"serve.arena_acquire_cold_ms", "ms", "lower", 0},
	{"serve.arena_acquire_hit_us", "us", "lower", 0},
	{"checkpoint.append_fsync_p50_us", "us", "lower", 0},
	{"checkpoint.load_ms", "ms", "lower", 0},
	{"store.add_ms", "ms", "lower", 0},
	{"store.resolve_us", "us", "lower", 0},
	{"trace_overhead_ratio", "ratio", "lower", 0},
}

// A run builds its workload at least minSetups times and, unless its
// inputs are the tiny ones of smoke tests, until minSetupTime has passed,
// at most maxSetups times; setup_s is the median, and the last build is
// the one measured. Repeating a cheap set-up for a second lets its median
// ride out bursts of load from other tenants.
const (
	minSetups    = 5
	maxSetups    = 50
	minSetupTime = time.Second
)

// env is what a workload's set-up receives.
type env struct {
	seed  int64
	short bool   // tiny inputs, for smoke tests
	dir   string // private scratch directory, removed when the run ends
	tr    *tracer
	// parent is the current set-up span, under which set-up calls are
	// recorded.
	parent int
}

// opCtx is passed to each operation. tr is nil for an untraced op;
// parent is the op's own span, under which layer calls are recorded.
type opCtx struct {
	job    int64
	tr     *tracer
	parent int
}

// instance is one set-up workload, ready to measure.
type instance struct {
	// round, when > 1, makes the run stop only after whole rounds of ops,
	// so every run measures the same mix of operations.
	round int
	// warm runs untimed ops before measuring, so caches fill first.
	warm func() error
	// prepare, when set, runs untimed before op seq.
	prepare func(seq int) error
	// op performs one timed operation and returns its output.
	op func(oc opCtx, seq int) (any, error)
	// verify checks op seq's output against the canonical output.
	verify func(seq int, out any) error
	// canonical is the workload's output for this seed, hashed for the
	// golden check once measuring ends.
	canonical func() []byte
	// check runs cross-checks that hold for any seed.
	check func() error
	// probe is the input the traced run's layer probes use.
	probe probeInput
	close func()
}

// workload is one named benchmark input.
type workload struct {
	name  string
	why   string
	setup func(e *env) (*instance, error)
}

// workloads lists every workload in the order the suite runs them.
var workloads = []workload{
	{"point-wb", "base machine, write-back L1D: one simulation where the issue loop and L1 hit probe do most of the work", setupPointWB},
	{"point-wt", "write-through L1D: every store goes to the write buffers, bus and L2, so slower stores show", setupPointWT},
	{"grid-fig41", "Fig 4-1 grid through the one-pass planner: one capture, then 109 downstream replays", setupGrid},
	{"paper", "every paper experiment on one fresh Context: full simulations of the Fig 5 surfaces, l1opt and ablations", setupPaper},
	{"serve-cold", "service jobs on specs it has not seen: simulate, fsync the journal, stream", setupServeCold},
	{"serve-warm", "resubmitted service jobs answered from the result cache, with no simulation", setupServeWarm},
	{"serve-restart", "service restart on a journal of every point, then one job answered from the replayed cache", setupServeRestart},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runConfig selects one run.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	short    bool
	workDir  string // parent of the run's scratch directory
	// golden maps workload and seed to the sha256 of the canonical
	// output; runs without an entry skip the check.
	golden map[string]map[string]string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one run: the last stdout line is its summary,
// and the whole report is written as BENCH_<workload>.json.
type report struct {
	Workload     string                 `json:"workload"`
	Seed         int64                  `json:"seed"`
	Seconds      float64                `json:"seconds"`
	Traced       bool                   `json:"traced"`
	Short        bool                   `json:"short"`
	Correct      bool                   `json:"correct"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	OutputSHA256 string                 `json:"output_sha256"`
	Errors       []string               `json:"errors,omitempty"`
	Host         host                   `json:"host"`
	Metrics      map[string]metricValue `json:"metrics"`
	// OpMS and SetupS are the gated distributions of op latency and set-up
	// time, scaled to the reference host's speed (see calib.go); their n
	// fields are the run's sample counts. OpWallMS and SetupWallS hold the
	// same samples as measured, and CalibMS the calibration kernel's times
	// beside the ops.
	OpMS       dist `json:"op_ms"`
	OpWallMS   dist `json:"op_wall_ms"`
	SetupS     dist `json:"setup_s"`
	SetupWallS dist `json:"setup_wall_s"`
	CalibMS    dist `json:"calib_ms"`
	// OpsPerS is ops completed per second from the first op's start to the
	// last op's end, and PeakRSSMB the process's peak resident set
	// (VmHWM). Both move with host noise and garbage-collector timing far
	// more than op_p50_ms and retained_heap_mb, so they are reported but
	// not gated.
	OpsPerS   float64 `json:"ops_per_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`

	spans []span
}

func (r *report) fail(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// run sets up a workload, measures it and checks its outputs. The error
// reports a failure to run at all; failed checks land in report.Errors.
func run(cfg runConfig) (*report, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	dir, err := os.MkdirTemp(cfg.workDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	rep := &report{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds,
		Traced: cfg.traced, Short: cfg.short, Host: hostInfo(dir),
	}
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	cal := newCalibrator()

	inst, setups, err := setUp(w, &env{seed: cfg.seed, short: cfg.short, dir: dir, tr: tr}, cal)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	rep.SetupS, rep.SetupWallS = summarize(setups.scaled()), summarize(setups.wall)

	if inst.warm != nil {
		if err := inst.warm(); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	var layers map[string]float64
	if cfg.traced {
		layers, err = probeLayers(tr, inst.probe)
		if err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
	}

	passes := inst.probe.arena.Cursors()
	m := measure(inst, cfg.seconds, tr, cal)
	passes = inst.probe.arena.Cursors() - passes
	heapMB := retainedHeapMB()
	rep.Attempted, rep.Failed = m.attempted, len(m.errs)
	for _, err := range m.errs {
		rep.fail("op: %v", err)
	}
	rep.OpMS, rep.OpWallMS = summarize(m.untraced.scaled()), summarize(m.untraced.wall)
	rep.CalibMS = summarize(m.untraced.calib)

	if inst.check != nil {
		if err := inst.check(); err != nil {
			rep.fail("cross-check: %v", err)
		}
	}
	sum := sha256.Sum256(inst.canonical())
	rep.OutputSHA256 = hex.EncodeToString(sum[:])
	if want, ok := cfg.golden[w.name][fmt.Sprint(cfg.seed)]; ok && want != rep.OutputSHA256 {
		rep.fail("golden: output sha256 %s, want %s", rep.OutputSHA256, want)
	}

	rep.Metrics = map[string]metricValue{}
	if cfg.traced {
		rep.spans = tr.snapshot()
		opLayers(layers, rep.spans, inst.probe.jobPoints, float64(passes)/float64(m.attempted))
		layers["trace_overhead_ratio"] = median(m.traced.scaled())/median(m.untraced.scaled()) - 1
		for _, d := range perLayer {
			rep.Metrics[d.Name] = metricValue{layers[d.Name], d.Unit}
		}
	} else {
		rep.Metrics["op_p50_ms"] = metricValue{rep.OpMS.P50, "ms"}
		rep.Metrics["retained_heap_mb"] = metricValue{heapMB, "MiB"}
		rep.Metrics["setup_s"] = metricValue{rep.SetupS.P50, "s"}
	}
	rep.OpsPerS = float64(m.attempted-len(m.errs)) / m.wall.Seconds()
	rep.PeakRSSMB = peakRSSMB()
	rep.Correct = len(rep.Errors) == 0
	return rep, nil
}

// setUp builds the workload repeatedly and keeps the last build. Earlier
// builds are closed and collected first, so memory reflects one instance.
func setUp(w workload, e *env, cal *calibrator) (*instance, samples, error) {
	var secs samples
	var inst *instance
	begin := time.Now()
	for i := 0; i < maxSetups && (i < minSetups || !e.short && time.Since(begin) < minSetupTime); i++ {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC()
		}
		k := cal.run()
		id := e.tr.begin("setup", -1, 0)
		e.parent = id
		start := time.Now()
		var err error
		inst, err = w.setup(e)
		secs.add(time.Since(start).Seconds(), k)
		e.tr.end(id)
		if err != nil {
			return nil, secs, fmt.Errorf("set-up: %w", err)
		}
	}
	return inst, secs, nil
}

// samples are times taken each just after a run of the calibration kernel.
type samples struct {
	wall, calib []float64 // calib in milliseconds
}

func (s *samples) add(wall, calibMS float64) {
	s.wall = append(s.wall, wall)
	s.calib = append(s.calib, calibMS)
}

// scaled returns each time scaled to the reference host's speed.
func (s samples) scaled() []float64 {
	out := make([]float64, len(s.wall))
	for i, w := range s.wall {
		out[i] = w * calibRefMS / s.calib[i]
	}
	return out
}

// measurement is what the op loop observed; op latencies are in
// milliseconds.
type measurement struct {
	attempted        int
	errs             []error
	wall             time.Duration // from the first op's start to the end of the last
	untraced, traced samples
}

// minOps is the fewest ops a run measures, however short its time.
const minOps = 3

// measure runs the closed loop: one client issues the next op when the
// previous one returns, until seconds have passed, at least minOps ops
// have run and the current round is complete. In a traced run every other
// op records spans, so the traced and untraced latencies of one run give
// the tracing overhead.
func measure(inst *instance, seconds float64, tr *tracer, cal *calibrator) measurement {
	round := max(inst.round, 1)
	var m measurement
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for seq := 0; seq < minOps || seq%round != 0 || time.Now().Before(deadline); seq++ {
		m.attempted++
		if err := runOp(inst, tr, cal, seq, &m); err != nil {
			m.errs = append(m.errs, fmt.Errorf("op %d: %w", seq, err))
		}
	}
	m.wall = time.Since(start)
	return m
}

// runOp prepares, times and verifies op seq, recording its latency in m.
func runOp(inst *instance, tr *tracer, cal *calibrator, seq int, m *measurement) error {
	if inst.prepare != nil {
		if err := inst.prepare(seq); err != nil {
			return err
		}
	}
	oc := opCtx{job: int64(seq) + 1, parent: -1}
	if tr != nil && seq%2 == 0 {
		oc.tr = tr
		oc.parent = tr.begin("op", -1, oc.job)
	}
	k := cal.run()
	t0 := time.Now()
	out, err := inst.op(oc, seq)
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	if oc.tr != nil {
		tr.end(oc.parent)
		m.traced.add(ms, k)
	} else {
		m.untraced.add(ms, k)
	}
	if err != nil {
		return err
	}
	return inst.verify(seq, out)
}

// canonicalOutputs keeps the first output seen for each key and compares
// every later one with it. Ops of one run must produce identical outputs.
type canonicalOutputs struct {
	outs map[int][]byte
}

func (c *canonicalOutputs) match(key int, out []byte) error {
	if c.outs == nil {
		c.outs = map[int][]byte{}
	}
	prev, ok := c.outs[key]
	if !ok {
		c.outs[key] = out
		return nil
	}
	if string(prev) != string(out) {
		return fmt.Errorf("output %d differs from the first one produced", key)
	}
	return nil
}

func (c *canonicalOutputs) get(key int) ([]byte, bool) {
	out, ok := c.outs[key]
	return out, ok
}

// joined concatenates the kept outputs in key order.
func (c *canonicalOutputs) joined() []byte {
	keys := make([]int, 0, len(c.outs))
	for k := range c.outs {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var b []byte
	for _, k := range keys {
		b = append(b, c.outs[k]...)
	}
	return b
}
