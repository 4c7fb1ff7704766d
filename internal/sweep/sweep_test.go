package sweep

import (
	"testing"

	"mlcache/internal/cache"
	"mlcache/internal/cpu"
	"mlcache/internal/mainmem"
	"mlcache/internal/memsys"
	"mlcache/internal/synth"
	"mlcache/internal/trace"
)

func testConfigure(pt Point) memsys.Config {
	l1 := func(name string) memsys.LevelConfig {
		return memsys.LevelConfig{
			Cache: cache.Config{
				Name: name, SizeBytes: 2 * 1024, BlockBytes: 16, Assoc: 1,
				Repl: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
			},
			CycleNS: 10,
		}
	}
	return memsys.Config{
		CPUCycleNS: 10,
		SplitL1:    true,
		L1I:        l1("L1I"),
		L1D:        l1("L1D"),
		Down: []memsys.LevelConfig{{
			Cache: cache.Config{
				Name: "L2", SizeBytes: pt.L2SizeBytes, BlockBytes: 32, Assoc: pt.L2Assoc,
				Repl: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
			},
			CycleNS: pt.L2CycleNS,
		}},
		Memory: mainmem.Base(),
	}
}

// testArena materializes the test workload. Each call returns a fresh
// arena, so a test that counts cursors counts only its own.
func testArena(t testing.TB) *trace.Arena {
	t.Helper()
	arena, err := trace.Materialize(synth.PaperStream(1, 30000))
	if err != nil {
		t.Fatal(err)
	}
	return arena
}

func TestGridPoints(t *testing.T) {
	g := Grid{
		SizesBytes: []int64{8192, 16384},
		CyclesNS:   []int64{10, 20, 30},
	}
	pts := g.Points()
	if len(pts) != 6 {
		t.Fatalf("points = %d, want 6", len(pts))
	}
	if pts[0] != (Point{8192, 10, 1}) {
		t.Errorf("first point = %+v", pts[0])
	}
	if pts[5] != (Point{16384, 30, 1}) {
		t.Errorf("last point = %+v", pts[5])
	}
	g.Assocs = []int{1, 2}
	if got := len(g.Points()); got != 12 {
		t.Errorf("with assocs, points = %d, want 12", got)
	}
}

func TestSizesPow2(t *testing.T) {
	got := SizesPow2(4, 32)
	want := []int64{4096, 8192, 16384, 32768}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("SizesPow2[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestCyclesRange(t *testing.T) {
	got := CyclesRange(1, 3, 10)
	want := []int64{10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("CyclesRange[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestRunnerRunsGrid(t *testing.T) {
	g := Grid{
		SizesBytes: []int64{8 * 1024, 64 * 1024},
		CyclesNS:   []int64{10, 60},
	}
	r := Runner{
		Configure: testConfigure,
		Arena:     testArena(t),
		CPU:       cpu.Config{CycleNS: 10, WarmupRefs: 5000},
	}
	results, err := r.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d, want 4", len(results))
	}
	// Results are size-major: size i at cycle j is results[2*i+j].
	rel := func(i, j int) float64 { return results[2*i+j].Run.RelTime }
	// A slower L2 can never be faster overall, for either size.
	for i := range g.SizesBytes {
		if rel(i, 1) < rel(i, 0) {
			t.Errorf("size %d: rel time decreased with slower L2: %v then %v", i, rel(i, 0), rel(i, 1))
		}
	}
	// A larger L2 at equal cycle time can only help (same trace).
	if rel(1, 0) > rel(0, 0) {
		t.Errorf("larger L2 slower at 1 cycle: %v vs %v", rel(1, 0), rel(0, 0))
	}
	// Every run must see identical instruction streams.
	for _, res := range results[1:] {
		if res.Run.Instructions != results[0].Run.Instructions {
			t.Errorf("instruction counts differ: %d vs %d", res.Run.Instructions, results[0].Run.Instructions)
		}
	}
}

func TestRunnerDeterministic(t *testing.T) {
	g := Grid{SizesBytes: []int64{16 * 1024}, CyclesNS: []int64{30}}
	r := Runner{
		Configure:   testConfigure,
		Arena:       testArena(t),
		CPU:         cpu.Config{CycleNS: 10},
		Parallelism: 4,
	}
	a, err := r.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].Run.TimeNS != b[0].Run.TimeNS || a[0].Run.Cycles != b[0].Run.Cycles {
		t.Errorf("nondeterministic runs: %v vs %v", a[0].Run, b[0].Run)
	}
}

func TestRunnerErrors(t *testing.T) {
	if _, err := (Runner{}).Run(Grid{SizesBytes: []int64{1024}, CyclesNS: []int64{10}}); err == nil {
		t.Error("Runner without Configure/Arena accepted")
	}
	bad := Runner{
		Configure: func(pt Point) memsys.Config {
			cfg := testConfigure(pt)
			cfg.CPUCycleNS = 0 // invalid
			return cfg
		},
		Arena: testArena(t),
		CPU:   cpu.Config{CycleNS: 10},
	}
	if _, err := bad.Run(Grid{SizesBytes: []int64{8192}, CyclesNS: []int64{10}}); err == nil {
		t.Error("invalid config not propagated")
	}
}

func TestPointString(t *testing.T) {
	p := Point{L2SizeBytes: 512 * 1024, L2CycleNS: 30, L2Assoc: 2}
	if p.String() == "" {
		t.Error("empty String")
	}
}
