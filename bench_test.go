// Benchmarks regenerating every table and figure of the paper (see
// DESIGN.md §4 for the experiment index). Each BenchmarkFigXX iteration
// recomputes the figure from scratch on a reduced-length trace; custom
// metrics report the figure's headline quantity alongside timing.
//
//	go test -bench=. -benchmem
package mlcache

import (
	"fmt"
	"io"
	"testing"

	"mlcache/internal/cpu"
	"mlcache/internal/experiments"
	"mlcache/internal/mainmem"
	"mlcache/internal/memsys"
	"mlcache/internal/synth"
	"mlcache/internal/trace"
)

// benchOptions: long enough for stable shapes, short enough for a bench.
func benchOptions() experiments.Options {
	return experiments.Options{Seed: 1, Refs: 150_000, Warmup: 30_000}
}

func benchFig3(b *testing.B, l1KB int) {
	b.ReportAllocs()
	var factor float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.MissRatios(l1KB, experiments.Fig3Sizes(), benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		factor = res.SoloDoublingFactor
	}
	b.ReportMetric(factor, "miss-factor/doubling")
}

// BenchmarkFig31 regenerates Figure 3-1: L2 local/global/solo miss ratios
// versus L2 size under a 4 KB L1.
func BenchmarkFig31(b *testing.B) { benchFig3(b, 4) }

// BenchmarkFig32 regenerates Figure 3-2: the same curves under a 32 KB L1.
func BenchmarkFig32(b *testing.B) { benchFig3(b, 32) }

func benchFig4(b *testing.B, l1KB int, mem mainmem.Config) {
	b.ReportAllocs()
	var span float64
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(benchOptions())
		res, err := ctx.Surface(l1KB, 1, mem, experiments.Fig4Grid())
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := res.ContourGrid().MinMax()
		span = hi - lo
	}
	b.ReportMetric(span, "reltime-span")
}

// BenchmarkFig41 regenerates Figure 4-1: the relative-execution-time
// surface over (L2 size, L2 cycle time) with a 4 KB L1.
func BenchmarkFig41(b *testing.B) { benchFig4(b, 4, mainmem.Base()) }

// BenchmarkFig42 regenerates Figure 4-2: lines of constant performance for
// the 4 KB L1 (same surface as 4-1 plus the contour extraction).
func BenchmarkFig42(b *testing.B) {
	b.ReportAllocs()
	var nLines int
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(benchOptions())
		res, err := ctx.Surface(4, 1, mainmem.Base(), experiments.Fig4Grid())
		if err != nil {
			b.Fatal(err)
		}
		g := res.ContourGrid()
		for _, level := range g.Levels(0.1) {
			if len(g.Line(level)) > 1 {
				nLines++
			}
		}
	}
	b.ReportMetric(float64(nLines)/float64(b.N), "contour-lines")
}

// BenchmarkFig43 regenerates Figure 4-3: constant performance with a
// 32 KB L1.
func BenchmarkFig43(b *testing.B) { benchFig4(b, 32, mainmem.Base()) }

// BenchmarkFig44 regenerates Figure 4-4: constant performance with main
// memory twice as slow.
func BenchmarkFig44(b *testing.B) { benchFig4(b, 4, mainmem.Slow()) }

func benchFig5(b *testing.B, setSize int) {
	b.ReportAllocs()
	var mean float64
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(benchOptions())
		res, err := ctx.BreakEven(4, setSize, experiments.Fig5Grid())
		if err != nil {
			b.Fatal(err)
		}
		mean = res.MeanBreakEvenNS()
	}
	b.ReportMetric(mean, "break-even-ns")
}

// BenchmarkFig51 regenerates Figure 5-1: set size 2 break-even times.
func BenchmarkFig51(b *testing.B) { benchFig5(b, 2) }

// BenchmarkFig52 regenerates Figure 5-2: set size 4 break-even times.
func BenchmarkFig52(b *testing.B) { benchFig5(b, 4) }

// BenchmarkFig53 regenerates Figure 5-3: set size 8 break-even times.
func BenchmarkFig53(b *testing.B) { benchFig5(b, 8) }

// BenchmarkDerived regenerates the scalar claims of §4-§6 (contour shift,
// break-even multiplier, 1/M_L1, doubling factor).
func BenchmarkDerived(b *testing.B) {
	b.ReportAllocs()
	var shift float64
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(benchOptions())
		d, err := experiments.Derived(ctx)
		if err != nil {
			b.Fatal(err)
		}
		shift = d.ContourShift8x
	}
	b.ReportMetric(shift, "contour-shift-8x")
}

// BenchmarkAblations regenerates one ablation table (abl-wbuf, §4
// footnote 2) on a fresh Context, which simulates all eight studies in one
// sweep over one trace: any other abl-* table would time the same work.
func BenchmarkAblations(b *testing.B) {
	e, _ := experiments.ByID("abl-wbuf")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(experiments.NewContext(benchOptions()), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkL1Opt regenerates the §6 optimal-L1-vs-L2-cycle-time table on a
// fresh Context: the full 6 L1 sizes × 8 L2 cycle times.
func BenchmarkL1Opt(b *testing.B) {
	b.ReportAllocs()
	var largest int
	for i := 0; i < b.N; i++ {
		res, err := experiments.NewContext(benchOptions()).L1Size()
		if err != nil {
			b.Fatal(err)
		}
		largest = res.OptimalL1[len(res.OptimalL1)-1]
	}
	b.ReportMetric(float64(largest), "optimal-L1-KB-at-8cyc")
}

// BenchmarkPaperExperiments runs every experiments.All() entry on a fresh
// Context over the 25k-reference paper trace (5k warm-up) with 2
// workers, the work of benchsuite's paper op, in process. Its B/op moves
// by about 1% between runs, so what the experiments allocate is read
// here more precisely than from the op's end-to-end time.
func BenchmarkPaperExperiments(b *testing.B) {
	opt := experiments.Options{Seed: 1, Refs: 25_000, Warmup: 5_000, Parallelism: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(opt)
		for _, x := range experiments.All() {
			if err := x.Run(ctx, io.Discard); err != nil {
				b.Fatalf("experiment %s: %v", x.ID, err)
			}
		}
	}
}

// BenchmarkSimulatorThroughput measures the raw timing-simulation speed of
// the base machine in references per second: the trace is decoded once
// into an arena outside the timed region (the sweep engine's decode-once
// model) and each iteration simulates it through a zero-copy cursor.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := experiments.BaseMachine(4,
		experiments.L2Config(512*1024, 30, 1), mainmem.Base())
	arena, err := Materialize(SyntheticWorkload(1, 200_000))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var refs int64
	for i := 0; i < b.N; i++ {
		res, err := Simulate(cfg, arena.Cursor(), 0)
		if err != nil {
			b.Fatal(err)
		}
		refs += res.CPUReads + res.Stores
	}
	b.ReportMetric(float64(refs)/b.Elapsed().Seconds(), "refs/s")
}

// BenchmarkHierarchyNewAndRun measures one simulated point of the paper
// workload whole: memsys.New of the base machine and one cpu.Run over the
// 25k-reference paper trace (5k warm-up), with a 512 KB and a 4 MB L2. A
// large L2's tag array is paged, so building it costs what the trace
// touches rather than its capacity.
func BenchmarkHierarchyNewAndRun(b *testing.B) {
	arena, err := synth.PaperArena(1, 25_000)
	if err != nil {
		b.Fatal(err)
	}
	run := cpu.Config{CycleNS: experiments.CPUCycleNS, WarmupRefs: 5_000}
	for _, kb := range []int64{512, 4096} {
		b.Run(fmt.Sprintf("L2=%dKB", kb), func(b *testing.B) {
			cfg := experiments.BaseMachine(4, experiments.L2Config(kb*1024, 30, 1), mainmem.Base())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h, err := memsys.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := cpu.Run(h, arena.Cursor(), run); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// synthSink keeps each generated arena live so the call is not removed.
var synthSink *trace.Arena

// BenchmarkSynthThroughput measures trace generation whole, as every
// caller pays for it: synth.PaperArena from the start of each process (its
// stack shuffles) to the last reference, at the paper workload's 25k
// references and the experiments' 2M.
func BenchmarkSynthThroughput(b *testing.B) {
	for _, c := range []struct {
		name string
		refs int64
	}{{"25k", 25_000}, {"2M", 2_000_000}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a, err := synth.PaperArena(1, c.refs)
				if err != nil {
					b.Fatal(err)
				}
				synthSink = a
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*c.refs), "ns/ref")
		})
	}
}

// BenchmarkHierarchyAccess measures the hot access path of the hierarchy
// (L1-hit dominated).
func BenchmarkHierarchyAccess(b *testing.B) {
	h, err := memsys.New(experiments.BaseMachine(4,
		experiments.L2Config(512*1024, 30, 1), mainmem.Base()))
	if err != nil {
		b.Fatal(err)
	}
	s := synth.MustNewMix(synth.PaperMix(1))
	refs := make([]trace.Ref, 8192)
	for i := range refs {
		r, err := s.Next()
		if err == io.EOF {
			b.Fatal("unexpected EOF")
		}
		refs[i] = r
	}
	b.ReportAllocs()
	b.ResetTimer()
	now := int64(0)
	for i := 0; i < b.N; i++ {
		now += 10
		now = h.Access(refs[i&8191], now)
	}
}
