package sweep

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"mlcache/internal/cache"
	"mlcache/internal/cpu"
	"mlcache/internal/memsys"
)

func TestAnalyticReason(t *testing.T) {
	ccfg := cpu.Config{CycleNS: 10}
	base := testConfigure(Point{L2SizeBytes: 65536, L2CycleNS: 30, L2Assoc: 1})
	if got := analyticReason(base, ccfg); got != "" {
		t.Fatalf("base machine classified timing-sensitive: %q", got)
	}
	cases := map[string]func(*memsys.Config, *cpu.Config){
		"flush":          func(_ *memsys.Config, c *cpu.Config) { c.FlushOnSwitch = true },
		"invariants":     func(h *memsys.Config, _ *cpu.Config) { h.CheckInvariants = true },
		"tlb":            func(h *memsys.Config, _ *cpu.Config) { h.TLB.Entries = 64 },
		"cycle mismatch": func(h *memsys.Config, _ *cpu.Config) { h.CPUCycleNS = 20; h.L1I.CycleNS = 20; h.L1D.CycleNS = 20 },
		"slow L1":        func(h *memsys.Config, _ *cpu.Config) { h.L1D.CycleNS = 20 },
		"L1 prefetch":    func(h *memsys.Config, _ *cpu.Config) { h.L1I.Prefetch = true },
		"L2 prefetch":    func(h *memsys.Config, _ *cpu.Config) { h.Down[0].Prefetch = true },
		"random L1":      func(h *memsys.Config, _ *cpu.Config) { h.L1D.Cache.Repl = cache.Random },
		"random L2":      func(h *memsys.Config, _ *cpu.Config) { h.Down[0].Cache.Repl = cache.Random },
	}
	for name, mutate := range cases {
		h, c := base, ccfg
		h.Down = append([]memsys.LevelConfig(nil), base.Down...)
		mutate(&h, &c)
		if analyticReason(h, c) == "" {
			t.Errorf("%s: classified analytic", name)
		}
	}
	// Downstream FIFO stays analytic: replay drives the real replacement
	// machinery, which is deterministic for everything but Random.
	h := base
	h.Down = append([]memsys.LevelConfig(nil), base.Down...)
	h.Down[0].Cache.Repl = cache.FIFO
	if got := analyticReason(h, ccfg); got != "" {
		t.Errorf("downstream FIFO classified timing-sensitive: %q", got)
	}
}

// renderTable renders results exactly as cmd/sweep does.
func renderTable(t *testing.T, results []Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTable(&buf, results, 10, false); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// simulateEach is the oracle the planner is checked against: every point
// gets a fresh memsys.New hierarchy and a cpu.Run over a fresh cursor, in
// input order, with no planner, worker pool or hierarchy reuse.
func simulateEach(t *testing.T, r Runner, pts []Point) []Result {
	t.Helper()
	out := make([]Result, len(pts))
	for i, pt := range pts {
		h, err := memsys.New(r.Configure(pt))
		if err != nil {
			t.Fatalf("oracle: point %v: %v", pt, err)
		}
		run, err := cpu.Run(h, r.Arena.Cursor(), r.CPU)
		if err != nil {
			t.Fatalf("oracle: point %v: %v", pt, err)
		}
		out[i] = Result{Point: pt, Run: run}
	}
	return out
}

// TestOnePassTableByteIdentical: a multi-size, multi-cycle,
// multi-associativity grid renders byte-for-byte the same table through
// the planner as through the oracle.
func TestOnePassTableByteIdentical(t *testing.T) {
	pts := Grid{
		SizesBytes: SizesPow2(8, 64),
		CyclesNS:   []int64{10, 30, 50},
		Assocs:     []int{1, 2},
	}.Points()
	r := Runner{Configure: testConfigure, Arena: testArena(t), CPU: cpu.Config{CycleNS: 10, WarmupRefs: 6000}}

	wantRes := simulateEach(t, r, pts)
	gotRes, err := r.RunContext(context.Background(), pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, got := renderTable(t, wantRes), renderTable(t, gotRes)
	if !bytes.Equal(want, got) {
		t.Fatalf("tables differ\noracle:\n%s\nplanner:\n%s", want, got)
	}
	// Beyond the table: execution time and downstream stats match exactly.
	for i := range wantRes {
		if gotRes[i].Run.TimeNS != wantRes[i].Run.TimeNS {
			t.Errorf("point %v: TimeNS %d != %d", pts[i], gotRes[i].Run.TimeNS, wantRes[i].Run.TimeNS)
		}
		if gotRes[i].Run.Mem.Down[0].Cache != wantRes[i].Run.Mem.Down[0].Cache {
			t.Errorf("point %v: L2 stats diverge", pts[i])
		}
	}
}

// TestOnePassTraceBudget: an analytic-only grid consumes a single trace
// pass (the pivot's), far under the ≤5 budget the issue allows.
func TestOnePassTraceBudget(t *testing.T) {
	arena := testArena(t)
	pts := Grid{
		SizesBytes: SizesPow2(8, 64),
		CyclesNS:   []int64{10, 20, 30, 40, 50},
	}.Points() // 20 analytic points, one upstream group
	r := Runner{
		Configure: testConfigure,
		Arena:     arena,
		CPU:       cpu.Config{CycleNS: 10, WarmupRefs: 6000},
	}
	results, err := r.RunContext(context.Background(), pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if !res.OK() {
			t.Fatalf("point %v failed: %v", res.Point, res.Err)
		}
	}
	if got := arena.Cursors(); got > 5 {
		t.Errorf("planner opened %d trace cursors for analytic points, budget is 5", got)
	}
	if got := arena.Cursors(); got != 1 {
		t.Errorf("expected exactly 1 trace pass (single group), got %d", got)
	}
}

// TestOnePassMixedClassification: timing-sensitive points (Random L2)
// interleaved with analytic ones still produce a byte-identical table.
func TestOnePassMixedClassification(t *testing.T) {
	configure := func(pt Point) memsys.Config {
		cfg := testConfigure(pt)
		if pt.L2CycleNS == 30 {
			cfg.Down[0].Cache.Repl = cache.Random
		}
		return cfg
	}
	pts := Grid{SizesBytes: SizesPow2(8, 32), CyclesNS: []int64{10, 30, 50}}.Points()
	r := Runner{Configure: configure, Arena: testArena(t), CPU: cpu.Config{CycleNS: 10, WarmupRefs: 5000}}
	gotRes, err := r.RunContext(context.Background(), pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want, got := renderTable(t, simulateEach(t, r, pts)), renderTable(t, gotRes); !bytes.Equal(want, got) {
		t.Fatalf("tables differ\noracle:\n%s\nplanner:\n%s", want, got)
	}
}

// TestOnePassSkipAndOnResult: Skip marks points without running them, and
// OnResult fires exactly once per completed point.
func TestOnePassSkipAndOnResult(t *testing.T) {
	pts := gridPoints(3, 2)
	var completed int32
	r := Runner{
		Configure: testConfigure,
		Arena:     testArena(t),
		CPU:       cpu.Config{CycleNS: 10},
	}
	skip := func(pt Point) bool { return pt.L2CycleNS == 20 }
	results, err := r.RunContext(context.Background(), pts, Options{
		Skip:     skip,
		OnResult: func(Result) { atomic.AddInt32(&completed, 1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	var ran, skipped int
	for _, res := range results {
		switch {
		case res.Skipped:
			skipped++
			if !skip(res.Point) {
				t.Errorf("point %v skipped unexpectedly", res.Point)
			}
		case res.OK():
			ran++
		default:
			t.Errorf("point %v failed: %v", res.Point, res.Err)
		}
	}
	if skipped != 3 || ran != 3 {
		t.Errorf("ran=%d skipped=%d, want 3/3", ran, skipped)
	}
	if got := atomic.LoadInt32(&completed); got != 3 {
		t.Errorf("OnResult fired %d times, want 3", got)
	}
}

// TestOnePassCancellation: cancelling mid-grid returns the completed
// prefix with ctx errors on the rest.
func TestOnePassCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var completed int32
	r := Runner{
		Configure:   testConfigure,
		Arena:       testArena(t),
		CPU:         cpu.Config{CycleNS: 10},
		Parallelism: 1,
	}
	pts := gridPoints(4, 2)
	results, err := r.RunContext(ctx, pts, Options{
		OnResult: func(Result) {
			if atomic.AddInt32(&completed, 1) == 2 {
				cancel()
			}
		},
	})
	if !Canceled(err) {
		t.Fatalf("err = %v, want cancellation", err)
	}
	for _, res := range results {
		if res.OK() || res.Skipped {
			continue
		}
		if !Canceled(res.Err) {
			t.Errorf("point %v: unexpected error %v", res.Point, res.Err)
		}
	}
}

// TestOnePassPivotFailureDemotesGroup: when the pivot's capture itself
// fails, the group is demoted — every other member is fully simulated and
// still matches the oracle, one trace pass each.
func TestOnePassPivotFailureDemotesGroup(t *testing.T) {
	arena := testArena(t)
	// The prepended point's L2 is smaller than one 32-byte block, so
	// memsys.New rejects it; it is analytic and first in its group, so it
	// is the pivot.
	bad := Point{L2SizeBytes: 16, L2CycleNS: 10, L2Assoc: 1}
	members := gridPoints(2, 2)
	pts := append([]Point{bad}, members...)
	r := Runner{Configure: testConfigure, Arena: arena, CPU: cpu.Config{CycleNS: 10, WarmupRefs: 5000}}
	results, err := r.RunContext(context.Background(), pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil {
		t.Fatal("pivot with an unbuildable L2 reported no error")
	}
	if got := arena.Cursors(); got != int64(len(members)) {
		t.Errorf("trace cursors = %d, want %d (one full simulation per demoted member)", got, len(members))
	}
	want := renderTable(t, simulateEach(t, r, members))
	if got := renderTable(t, results[1:]); !bytes.Equal(want, got) {
		t.Fatalf("demoted members differ from the oracle\noracle:\n%s\nplanner:\n%s", want, got)
	}
}

// TestTagProbeCompletesBeforeItsGroup: a tag group's other members start
// only once its probe, which plays right after the tag pivot, has finished,
// so a diverging group costs one partial replay. The probe (the last cycle
// time of each size) is therefore reported before every member between
// the tag pivot and itself. The capturing pivot's size has no such
// members, so workers reach the other sizes' members while their tag
// pivots still run.
func TestTagProbeCompletesBeforeItsGroup(t *testing.T) {
	const cycles = 8
	pts := []Point{{L2SizeBytes: 8 * 1024, L2CycleNS: 10, L2Assoc: 1}, {L2SizeBytes: 8 * 1024, L2CycleNS: 10 * cycles, L2Assoc: 1}}
	pts = append(pts, gridPoints(3, cycles)[cycles:]...)
	var mu sync.Mutex
	done := map[Point]int{}
	r := Runner{Configure: testConfigure, Arena: testArena(t), CPU: cpu.Config{CycleNS: 10, WarmupRefs: 5000}, Parallelism: 4}
	_, err := r.RunContext(context.Background(), pts, Options{OnResult: func(res Result) {
		mu.Lock()
		done[res.Point] = len(done)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	for s := 2; s < len(pts); s += cycles {
		group := pts[s : s+cycles]
		probe := group[cycles-1]
		for _, member := range group[1 : cycles-1] {
			if done[member] < done[probe] {
				t.Errorf("%v finished before its group's probe %v", member, probe)
			}
		}
	}
}
