package main

import (
	"bytes"
	"context"
	"embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"mlcache/internal/config"
	"mlcache/internal/coord"
	"mlcache/internal/cpu"
	"mlcache/internal/experiments"
	"mlcache/internal/mainmem"
	"mlcache/internal/memsys"
	"mlcache/internal/sweep"
	"mlcache/internal/synth"
	"mlcache/internal/trace"
)

//go:embed testdata
var testdata embed.FS

// simPar is the simulation parallelism of the grid and paper workloads,
// sized for a two-core host.
const simPar = 2

// synthArena materializes a seeded synthetic workload, the input every
// workload starts from.
func synthArena(e *env, seed, refs int64) (*trace.Arena, error) {
	var a *trace.Arena
	err := e.tr.timed("trace.synth", e.parent, 0, func() (err error) {
		a, err = trace.Materialize(synth.PaperStream(seed, refs))
		return err
	})
	return a, err
}

func loadConfig(name string) (memsys.Config, error) {
	src, err := testdata.ReadFile("testdata/" + name)
	if err != nil {
		return memsys.Config{}, err
	}
	return config.ParseString(string(src))
}

// fig41Spec is the checked-in Fig 4-1 job: 11 L2 sizes × 10 cycle times
// behind a 4 KB L1, evaluated by the one-pass planner.
func fig41Spec() (coord.JobSpec, error) {
	var spec coord.JobSpec
	src, err := testdata.ReadFile("testdata/fig41.json")
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(src, &spec); err != nil {
		return spec, fmt.Errorf("fig41.json: %w", err)
	}
	return spec, nil
}

// baseMachine is the paper's base machine with a 512 KB, 3-cycle L2: the
// layer-probe machine of workloads that sweep many machines.
func baseMachine() memsys.Config {
	return experiments.BaseMachine(4, experiments.L2Config(512*1024, 30, 1), mainmem.Base())
}

// sameSimulation compares two results on everything a table or a replay
// reproduces: PerPID and StallHist are per-slot diagnostics that one-pass
// replays leave empty.
func sameSimulation(a, b cpu.Result) bool {
	a.PerPID, b.PerPID = nil, nil
	a.StallHist, b.StallHist = [16]int64{}, [16]int64{}
	return reflect.DeepEqual(a, b)
}

func setupPointWB(e *env) (*instance, error) { return setupPoint(e, "base.cfg") }
func setupPointWT(e *env) (*instance, error) { return setupPoint(e, "base_wt.cfg") }

// setupPoint builds one full simulation of the base machine over a 2M-ref
// trace with 400k warm-up references; an op is one cpu.Run pass.
func setupPoint(e *env, cfgName string) (*instance, error) {
	refs, warmup := int64(2_000_000), int64(400_000)
	if e.short {
		refs, warmup = 20_000, 4_000
	}
	arena, err := synthArena(e, e.seed, refs)
	if err != nil {
		return nil, err
	}
	cfg, err := loadConfig(cfgName)
	if err != nil {
		return nil, err
	}
	var h *memsys.Hierarchy
	err = e.tr.timed("memsys.New", e.parent, 0, func() (err error) {
		h, err = memsys.New(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	ccfg := cpu.Config{CycleNS: cfg.CPUCycleNS, WarmupRefs: warmup}
	simulate := func() (cpu.Result, error) {
		h.Reset()
		return cpu.Run(h, arena.Cursor(), ccfg)
	}
	var outs canonicalOutputs
	keep := func(res cpu.Result) error {
		b, err := json.Marshal(res)
		if err != nil {
			return err
		}
		return outs.match(0, b)
	}
	return &instance{
		warm: func() error {
			res, err := simulate()
			if err != nil {
				return err
			}
			return keep(res)
		},
		op: func(oc opCtx, _ int) (any, error) {
			var res cpu.Result
			err := oc.tr.timed("cpu.Run", oc.parent, oc.job, func() (err error) {
				res, err = simulate()
				return err
			})
			return res, err
		},
		verify:    func(_ int, out any) error { return keep(out.(cpu.Result)) },
		canonical: outs.joined,
		check: func() error {
			// The per-reference Stream path into a fresh hierarchy shares
			// neither the batched arena reader nor Reset with the ops.
			fresh, err := memsys.New(cfg)
			if err != nil {
				return err
			}
			res, err := cpu.Run(fresh, trace.Trace(arena.Refs()).Stream(), ccfg)
			if err != nil {
				return err
			}
			if err := keep(res); err != nil {
				return fmt.Errorf("stream-path simulation differs from the arena passes: %w", err)
			}
			return nil
		},
		probe: probeInput{arena: arena, cfg: cfg, cpu: ccfg, synthRefs: refs, dir: e.dir},
		close: func() {},
	}, nil
}

// setupGrid writes a 500k-ref trace as an .mlca artifact and maps it
// back, as cmd/sweep -trace does; an op evaluates the whole Fig 4-1 grid.
// The trace is a quarter of the point workloads' so that a run measures
// dozens of grids rather than a handful.
func setupGrid(e *env) (*instance, error) {
	refs := int64(500_000)
	if e.short {
		refs = 20_000
	}
	dir, err := os.MkdirTemp(e.dir, "grid-")
	if err != nil {
		return nil, err
	}
	arena, err := synthArena(e, e.seed, refs)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "trace.mlca")
	art, err := writeAndOpenArtifact(e.tr, e.parent, path, arena)
	if err != nil {
		return nil, err
	}
	spec, err := fig41Spec()
	if err != nil {
		art.Close()
		return nil, err
	}
	spec.TracePath = path
	ga := art.Arena()
	pts := spec.Points()

	var (
		outs canonicalOutputs
		last []sweep.Result
	)
	return &instance{
		warm: func() error {
			_, err := runGrid(opCtx{parent: -1}, spec, ga, pts)
			return err
		},
		op: func(oc opCtx, _ int) (any, error) {
			return runGrid(oc, spec, ga, pts)
		},
		verify: func(_ int, out any) error {
			results := out.([]sweep.Result)
			for _, r := range results {
				if r.Err != nil {
					return r.Err
				}
			}
			var csv bytes.Buffer
			if err := sweep.WriteTable(&csv, results, experiments.CPUCycleNS, true); err != nil {
				return err
			}
			last = results
			return outs.match(0, csv.Bytes())
		},
		canonical: outs.joined,
		check: func() error {
			// Three sampled points, simulated end to end on their own
			// hierarchies, must equal the planner's captured or replayed
			// results.
			if last == nil {
				return fmt.Errorf("no grid completed")
			}
			runner := spec.RunnerFor(ga)
			rng := rand.New(rand.NewSource(e.seed))
			for _, i := range rng.Perm(len(pts))[:min(3, len(pts))] {
				want, err := simulateArena(runner.Configure(pts[i]), ga, runner.CPU)
				if err != nil {
					return err
				}
				if !sameSimulation(last[i].Run, want) {
					return fmt.Errorf("grid point %v: one-pass result differs from a full simulation", pts[i])
				}
			}
			return nil
		},
		probe: probeInput{arena: ga, cfg: baseMachine(), cpu: experiments.Options{Warmup: refs / 5}.CPU(), synthRefs: refs, dir: e.dir},
		close: func() { art.Close() },
	}, nil
}

// runGrid evaluates the grid once. In a traced op each OnResult is
// recorded: the first as sweep.first_point (from the RunContext call),
// later ones as sweep.point_gap (from the previous result).
func runGrid(oc opCtx, spec coord.JobSpec, arena *trace.Arena, pts []sweep.Point) ([]sweep.Result, error) {
	var runner sweep.Runner
	oc.tr.timed("coord.JobSpec.RunnerFor", oc.parent, oc.job, func() error {
		runner = spec.RunnerFor(arena)
		return nil
	})
	runner.Parallelism = simPar
	var opts sweep.Options
	if oc.tr != nil {
		first := true
		prev := time.Now()
		opts.OnResult = func(sweep.Result) {
			now := time.Now()
			name := "sweep.point_gap"
			if first {
				name, first = "sweep.first_point", false
			}
			oc.tr.add(name, oc.parent, oc.job, prev, now)
			prev = now
		}
	}
	var results []sweep.Result
	err := oc.tr.timed("sweep.RunContext", oc.parent, oc.job, func() (err error) {
		results, err = runner.RunContext(context.Background(), pts, opts)
		return err
	})
	return results, err
}

// experimentFamily groups experiment ids into the per-layer metrics
// experiments.<family>_s.
func experimentFamily(id string) string {
	switch {
	case strings.HasPrefix(id, "3-"):
		return "fig3"
	case strings.HasPrefix(id, "4-"):
		return "fig4"
	case strings.HasPrefix(id, "5-"):
		return "fig5"
	case strings.HasPrefix(id, "abl-"):
		return "ablation"
	case id == "model-check":
		return "modelcheck"
	}
	return id
}

// setupPaper prepares experiments.All() over a 25k-ref trace with 5k
// warm-up references; an op runs every experiment on a fresh Context.
func setupPaper(e *env) (*instance, error) {
	opt := experiments.Options{Seed: e.seed, Refs: 25_000, Warmup: 5_000, Parallelism: simPar}
	if e.short {
		opt.Refs, opt.Warmup = 3_000, 600
	}
	// The experiments generate this same trace themselves; the benchmark
	// keeps a copy for the cross-check and the layer probes.
	arena, err := synthArena(e, e.seed, opt.Refs)
	if err != nil {
		return nil, err
	}
	var (
		outs    canonicalOutputs
		lastCtx *experiments.Context
	)
	return &instance{
		op: func(oc opCtx, _ int) (any, error) {
			ctx := experiments.NewContext(opt)
			var buf bytes.Buffer
			for _, x := range experiments.All() {
				fmt.Fprintf(&buf, "==== %s: %s ====\n", x.ID, x.Title)
				err := oc.tr.timed("experiments."+experimentFamily(x.ID), oc.parent, oc.job, func() error {
					return x.Run(ctx, &buf)
				})
				if err != nil {
					return nil, fmt.Errorf("experiment %s: %w", x.ID, err)
				}
			}
			lastCtx = ctx
			return buf.Bytes(), nil
		},
		verify:    func(_ int, out any) error { return outs.match(0, out.([]byte)) },
		canonical: outs.joined,
		check: func() error {
			// Fig 3-1's global and solo L2 miss ratios at three sampled
			// sizes must equal direct simulations over the arena copy.
			if lastCtx == nil {
				return fmt.Errorf("no paper run completed")
			}
			res, err := lastCtx.MissRatios(4)
			if err != nil {
				return err
			}
			rng := rand.New(rand.NewSource(e.seed))
			for _, i := range rng.Perm(len(res.Rows))[:min(3, len(res.Rows))] {
				row := res.Rows[i]
				l2 := experiments.L2Config(row.L2SizeBytes, 3*experiments.CPUCycleNS, 1)
				two, err := simulateArena(experiments.BaseMachine(4, l2, mainmem.Base()), arena, opt.CPU())
				if err != nil {
					return err
				}
				solo, err := simulateArena(experiments.SoloMachine(l2, mainmem.Base()), arena, opt.CPU())
				if err != nil {
					return err
				}
				if g := two.Mem.Down[0].GlobalReadMissRatio(two.CPUReads); g != row.Global {
					return fmt.Errorf("Fig 3-1 L2 %d B: global miss ratio %v, direct simulation %v", row.L2SizeBytes, row.Global, g)
				}
				if s := solo.Mem.L1.LocalReadMissRatio(); s != row.Solo {
					return fmt.Errorf("Fig 3-1 L2 %d B: solo miss ratio %v, direct simulation %v", row.L2SizeBytes, row.Solo, s)
				}
			}
			return nil
		},
		probe: probeInput{arena: arena, cfg: baseMachine(), cpu: opt.CPU(), synthRefs: opt.Refs, dir: e.dir},
		close: func() {},
	}, nil
}

func simulateArena(cfg memsys.Config, arena *trace.Arena, c cpu.Config) (cpu.Result, error) {
	h, err := memsys.New(cfg)
	if err != nil {
		return cpu.Result{}, err
	}
	return cpu.Run(h, arena.Cursor(), c)
}

// writeAndOpenArtifact writes arena as an .mlca artifact at path and maps
// it back.
func writeAndOpenArtifact(tr *tracer, parent int, path string, arena *trace.Arena) (*trace.Artifact, error) {
	if err := tr.timed("trace.WriteArtifact", parent, 0, func() error {
		return trace.WriteArtifact(path, arena)
	}); err != nil {
		return nil, err
	}
	var art *trace.Artifact
	err := tr.timed("trace.OpenArtifact", parent, 0, func() (err error) {
		art, err = trace.OpenArtifact(path)
		return err
	})
	return art, err
}
