package sweep

import (
	"reflect"
	"sync/atomic"
	"testing"

	"mlcache/internal/cache"
	"mlcache/internal/cpu"
	"mlcache/internal/memsys"
	"mlcache/internal/synth"
	"mlcache/internal/trace"
)

// countingStream counts Next calls across every stream the factory hands
// out, so a test can observe how many times the engine decodes the trace.
type countingStream struct {
	s     trace.Stream
	calls *atomic.Int64
}

func (c countingStream) Next() (trace.Ref, error) {
	c.calls.Add(1)
	return c.s.Next()
}

// TestGridDecodesTraceOnce is the decode-once guarantee: a Fig 4-1-sized
// sweep (110 points) must pull each reference through the Trace stream
// exactly once, no matter how many points or workers consume it.
func TestGridDecodesTraceOnce(t *testing.T) {
	const refs = 20_000
	var factoryCalls, nextCalls atomic.Int64
	r := Runner{
		Configure: testConfigure,
		Trace: func() trace.Stream {
			factoryCalls.Add(1)
			return countingStream{s: synth.PaperStream(1, refs), calls: &nextCalls}
		},
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
	results, err := r.RunPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(pts) {
		t.Fatalf("results = %d, want %d", len(results), len(pts))
	}
	if got := factoryCalls.Load(); got != 1 {
		t.Errorf("Trace factory called %d times, want 1", got)
	}
	// refs successful Next calls plus the final io.EOF.
	if got := nextCalls.Load(); got != refs+1 {
		t.Errorf("trace decoded with %d Next calls, want %d (refs+EOF)", got, refs+1)
	}
}

// TestRunnerArenaField runs a grid straight off a pre-materialized arena;
// Trace must never be called.
func TestRunnerArenaField(t *testing.T) {
	arena, err := trace.Materialize(synth.PaperStream(1, 5000))
	if err != nil {
		t.Fatal(err)
	}
	r := Runner{
		Configure: testConfigure,
		Trace:     func() trace.Stream { t.Error("Trace called despite Arena"); return nil },
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
	// The runner is also valid with no Trace at all.
	r.Trace = nil
	if _, err := r.Run(Grid{SizesBytes: []int64{8 * 1024}, CyclesNS: []int64{10}}); err != nil {
		t.Errorf("Runner with Arena but no Trace rejected: %v", err)
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
	run := func() []Result {
		t.Helper()
		r := Runner{
			Configure:   randomReplConfigure,
			Trace:       func() trace.Stream { return synth.PaperStream(7, 20_000) },
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
