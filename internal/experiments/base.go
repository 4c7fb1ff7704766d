// Package experiments computes every figure and table of the paper's
// evaluation, over the base machine of §2: a 10 ns RISC-like CPU with a
// split 4 KB on-chip L1 (2 KB I + 2 KB D, direct-mapped, 4-word blocks,
// write-back, 2-cycle write hits), an external unified L2 (default 512 KB,
// direct-mapped, 8-word blocks, 3-CPU-cycle cycle time, write-back), 4-word
// buses cycling at the L2 rate, 4-entry write buffers between levels, and
// main memory with 180 ns reads / 100 ns writes / 120 ns recovery.
//
// A Context computes the tables (All lists them) from the synthetic
// multiprogramming workload of package synth (see DESIGN.md §2 for the
// substitution argument), each computation's machines in one sweep, and
// returns structured results; rendering lives in render.go.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"mlcache/internal/cache"
	"mlcache/internal/cpu"
	"mlcache/internal/mainmem"
	"mlcache/internal/memsys"
	"mlcache/internal/sweep"
	"mlcache/internal/synth"
	"mlcache/internal/trace"
)

// CPUCycleNS is the base machine's 10 ns CPU cycle.
const CPUCycleNS = 10

// Options control trace length and parallelism for all experiments.
type Options struct {
	Seed int64
	// Refs is the trace length in references; Warmup references are
	// excluded from statistics (cold-start handling).
	Refs   int64
	Warmup int64
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
}

// DefaultOptions returns the trace sizing used for the published numbers
// in EXPERIMENTS.md.
func DefaultOptions() Options {
	return Options{Seed: 1, Refs: 2_000_000, Warmup: 400_000}
}

// QuickOptions returns a reduced sizing for tests and -short runs.
func QuickOptions() Options {
	return Options{Seed: 1, Refs: 200_000, Warmup: 40_000}
}

// arena materializes the experiment workload. Each computation that a
// Context memoizes, and MissRatios, calls it once and shares the arena
// across all of its simulations through cursors; the arena is dropped when
// the computation returns.
func (o Options) arena() (*trace.Arena, error) {
	generations.Add(1)
	return synth.PaperArena(o.Seed, o.Refs)
}

// generations counts the calls of arena and simulations the machines
// simulate runs, so tests can pin the work of one pass over All.
var generations, simulations atomic.Int64

// simulate runs every configuration over the arena in one sweep.Runner
// pass and returns their runs in order; configurations that share a first
// level share one capture (see sweep.Runner.RunContext). flush sets
// cpu.Config.FlushOnSwitch for all of them. The error of a machine that
// fails is a *machineError: it names the machine by its configuration and
// wraps the engine's cause without the engine's prefix, which names only
// the index-encoded point.
func simulate(arena *trace.Arena, opt Options, cfgs []memsys.Config, flush bool) ([]cpu.Result, error) {
	simulations.Add(int64(len(cfgs)))
	runner := sweep.Runner{
		// Point.L2Assoc carries the configuration's index.
		Configure:   func(pt sweep.Point) memsys.Config { return cfgs[pt.L2Assoc] },
		Arena:       arena,
		CPU:         opt.CPU(),
		Parallelism: opt.Parallelism,
	}
	runner.CPU.FlushOnSwitch = flush
	pts := make([]sweep.Point, len(cfgs))
	for i := range pts {
		pts[i] = sweep.Point{L2Assoc: i}
	}
	results, err := runner.RunContext(context.Background(), pts, sweep.Options{})
	if err != nil {
		return nil, err
	}
	runs := make([]cpu.Result, len(results))
	for i, r := range results {
		if r.Err != nil {
			return nil, &machineError{i, cfgs[i], errors.Unwrap(r.Err)}
		}
		runs[i] = r.Run
	}
	return runs, nil
}

// machineError is the failure of cfg, the configuration at index of
// simulate's list.
type machineError struct {
	index int
	cfg   memsys.Config
	err   error
}

// Error names the machine by its L1 size, or "solo", and its L2.
func (e *machineError) Error() string {
	l1, l2 := "solo", e.cfg.L1 // the solo machine's one level is the L2
	if len(e.cfg.Down) > 0 {
		size := e.cfg.L1.Cache.SizeBytes
		if e.cfg.SplitL1 {
			size = e.cfg.L1I.Cache.SizeBytes + e.cfg.L1D.Cache.SizeBytes
		}
		l1, l2 = fmt.Sprintf("L1=%dKB", size/1024), e.cfg.Down[0]
	}
	pt := sweep.Point{L2SizeBytes: l2.Cache.SizeBytes, L2CycleNS: l2.CycleNS, L2Assoc: l2.Cache.Assoc}
	return fmt.Sprintf("machine %s %v: %v", l1, pt, e.err)
}

func (e *machineError) Unwrap() error { return e.err }

// CPU returns the CPU configuration for the options.
func (o Options) CPU() cpu.Config {
	return cpu.Config{CycleNS: CPUCycleNS, WarmupRefs: o.Warmup}
}

// L1Config returns a split first-level configuration of the given total
// size (half instruction, half data), direct-mapped with 4-word blocks,
// cycling at the CPU rate.
func L1Config(totalKB int) (i, d memsys.LevelConfig) {
	half := int64(totalKB) * 1024 / 2
	mk := func(name string) memsys.LevelConfig {
		return memsys.LevelConfig{
			Cache: cache.Config{
				Name:       name,
				SizeBytes:  half,
				BlockBytes: 16,
				Assoc:      1,
				Repl:       cache.LRU,
				Write:      cache.WriteBack,
				Alloc:      cache.WriteAllocate,
			},
			CycleNS: CPUCycleNS,
		}
	}
	return mk("L1I"), mk("L1D")
}

// L2Config returns a unified second-level configuration with 8-word
// blocks.
func L2Config(sizeBytes int64, cycleNS int64, assoc int) memsys.LevelConfig {
	return memsys.LevelConfig{
		Cache: cache.Config{
			Name:       "L2",
			SizeBytes:  sizeBytes,
			BlockBytes: 32,
			Assoc:      assoc,
			Repl:       cache.LRU,
			Write:      cache.WriteBack,
			Alloc:      cache.WriteAllocate,
		},
		CycleNS: cycleNS,
	}
}

// BaseMachine returns the paper's base two-level machine with the given L1
// total size and L2 parameters.
func BaseMachine(l1TotalKB int, l2 memsys.LevelConfig, mem mainmem.Config) memsys.Config {
	l1i, l1d := L1Config(l1TotalKB)
	return memsys.Config{
		CPUCycleNS: CPUCycleNS,
		SplitL1:    true,
		L1I:        l1i,
		L1D:        l1d,
		Down:       []memsys.LevelConfig{l2},
		WBDepth:    4,
		Memory:     mem,
	}
}

// SoloMachine returns a single-level system containing only the L2 cache
// (the paper's "solo" configuration: the L1 removed entirely).
func SoloMachine(l2 memsys.LevelConfig, mem mainmem.Config) memsys.Config {
	return memsys.Config{
		CPUCycleNS: CPUCycleNS,
		L1:         l2,
		WBDepth:    4,
		Memory:     mem,
	}
}
