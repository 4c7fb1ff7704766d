package sweep

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"mlcache/internal/cache"
	"mlcache/internal/cpu"
	"mlcache/internal/memsys"
	"mlcache/internal/synth"
	"mlcache/internal/trace"
)

// TestGridDecodesTraceOnce: the engine never decodes; it reads the
// caller's arena. Two RunContext calls over one Runner, as two shards of
// the Fig 4-1 grid, each open one cursor on that arena (the pivot of the
// shard's one upstream group), and together their results render the
// same table as one whole-grid run.
func TestGridDecodesTraceOnce(t *testing.T) {
	arena, err := trace.Materialize(synth.PaperStream(1, 20_000))
	if err != nil {
		t.Fatal(err)
	}
	r := Runner{
		Configure:   testConfigure,
		Arena:       arena,
		CPU:         cpu.Config{CycleNS: 10},
		Parallelism: 4,
	}
	grid := Grid{
		SizesBytes: SizesPow2(4, 4096),
		CyclesNS:   CyclesRange(1, 10, 10),
	}
	pts := grid.Points()
	if len(pts) != 110 {
		t.Fatalf("grid has %d points, want the 110 of Fig 4-1", len(pts))
	}
	const shards = 2
	merged := make([]Result, len(pts))
	for i := 0; i < shards; i++ {
		before := arena.Cursors()
		results, err := r.RunContext(context.Background(), Shard(pts, i, shards), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := arena.Cursors() - before; got != 1 {
			t.Errorf("shard %d/%d opened %d cursors on the arena, want 1", i, shards, got)
		}
		for j, res := range results {
			if !res.OK() {
				t.Fatalf("shard %d/%d: point %v failed: %v", i, shards, res.Point, res.Err)
			}
			merged[i+j*shards] = res
		}
	}
	whole, err := r.RunContext(context.Background(), pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want, got := renderTable(t, whole), renderTable(t, merged); !bytes.Equal(want, got) {
		t.Fatalf("shards differ from the whole grid\nwhole:\n%s\nshards:\n%s", want, got)
	}
}

// TestRunnerArenaField runs a grid straight off a caller-built arena, and
// rejects a Runner without one: the arena is the engine's only trace
// source.
func TestRunnerArenaField(t *testing.T) {
	arena, err := trace.Materialize(synth.PaperStream(1, 5000))
	if err != nil {
		t.Fatal(err)
	}
	r := Runner{
		Configure: testConfigure,
		Arena:     arena,
		CPU:       cpu.Config{CycleNS: 10},
	}
	results, err := r.Run(Grid{SizesBytes: []int64{8 * 1024}, CyclesNS: []int64{10, 30}})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Run.Instructions != results[1].Run.Instructions {
		t.Errorf("points saw different instruction streams: %d vs %d",
			results[0].Run.Instructions, results[1].Run.Instructions)
	}
	r.Arena = nil
	if _, err := r.Run(Grid{SizesBytes: []int64{8 * 1024}, CyclesNS: []int64{10}}); err == nil {
		t.Error("Runner without an Arena accepted")
	}
}

// randomReplConfigure is testConfigure with every cache on Random
// replacement, the policy whose determinism depends on per-cache seeding.
func randomReplConfigure(pt Point) memsys.Config {
	cfg := testConfigure(pt)
	cfg.L1I.Cache.Repl = cache.Random
	cfg.L1I.Cache.Assoc = 2
	cfg.L1D.Cache.Repl = cache.Random
	cfg.L1D.Cache.Assoc = 2
	for i := range cfg.Down {
		cfg.Down[i].Cache.Repl = cache.Random
		cfg.Down[i].Cache.Assoc = 2
	}
	return cfg
}

// TestParallelSweepsIdenticalWithRandomRepl asserts the determinism
// contract: two parallel sweeps over Random-replacement hierarchies
// produce identical reports, because every cache seeds its own PRNG from
// its configuration rather than sharing global or scheduling-dependent
// state, and worker-reused hierarchies reseed on Reset.
func TestParallelSweepsIdenticalWithRandomRepl(t *testing.T) {
	arena, err := trace.Materialize(synth.PaperStream(7, 20_000))
	if err != nil {
		t.Fatal(err)
	}
	run := func() []Result {
		t.Helper()
		r := Runner{
			Configure:   randomReplConfigure,
			Arena:       arena,
			CPU:         cpu.Config{CycleNS: 10, WarmupRefs: 4000},
			Parallelism: 4,
		}
		results, err := r.Run(Grid{
			SizesBytes: SizesPow2(8, 64),
			CyclesNS:   []int64{10, 30, 50},
		})
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		for i := range a {
			if !reflect.DeepEqual(a[i], b[i]) {
				t.Fatalf("parallel sweeps diverged at point %v:\nfirst:  %+v\nsecond: %+v",
					a[i].Point, a[i].Run, b[i].Run)
			}
		}
		t.Fatal("parallel sweeps diverged")
	}
}
