package sweep

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"mlcache/internal/cache"
	"mlcache/internal/cpu"
	"mlcache/internal/memsys"
)

// TestScheduleByteIdenticalTable: the parallel engine, whose workers each
// reset one hierarchy from point to point, must render exactly the same
// table bytes as fresh one-hierarchy-per-point simulations performed in
// input order.
func TestScheduleByteIdenticalTable(t *testing.T) {
	grid := Grid{
		SizesBytes: []int64{16 * 1024, 64 * 1024},
		CyclesNS:   []int64{10, 20},
		Assocs:     []int{1, 2},
	}
	pts := grid.Points()

	// Ground truth: sequential, fresh hierarchy per point, input order.
	arena := testArena(t)
	want := make([]Result, len(pts))
	for i, pt := range pts {
		h, err := memsys.New(testConfigure(pt))
		if err != nil {
			t.Fatal(err)
		}
		run, err := cpu.Run(h, arena.Cursor(), cpu.Config{CycleNS: 10, WarmupRefs: 5000})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = Result{Point: pt, Run: run}
	}
	var wantTable bytes.Buffer
	if err := WriteTable(&wantTable, want, 10, false); err != nil {
		t.Fatal(err)
	}

	r := Runner{
		Configure:   testConfigure,
		Arena:       arena,
		CPU:         cpu.Config{CycleNS: 10, WarmupRefs: 5000},
		Parallelism: 4,
	}
	got, err := r.RunContext(context.Background(), pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var gotTable bytes.Buffer
	if err := WriteTable(&gotTable, got, 10, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotTable.Bytes(), wantTable.Bytes()) {
		t.Errorf("tables differ:\n--- scheduled ---\n%s--- reference ---\n%s",
			gotTable.String(), wantTable.String())
	}
}

// TestWorkerReuseAcrossGeometries: one worker runs every point as a full
// simulation on its one hierarchy while the L2's size and associativity,
// the L1 sizes, a split or unified L1 and an L3 change from point to
// point, and each result must equal a fresh hierarchy's.
func TestWorkerReuseAcrossGeometries(t *testing.T) {
	l1KB := func(kb int64) func(*memsys.Config) {
		return func(cfg *memsys.Config) { cfg.L1I.Cache.SizeBytes, cfg.L1D.Cache.SizeBytes = kb<<10, kb<<10 }
	}
	unified := func(cfg *memsys.Config) {
		cfg.SplitL1, cfg.L1, cfg.L1I, cfg.L1D = false, cfg.L1D, memsys.LevelConfig{}, memsys.LevelConfig{}
		cfg.L1.Cache.Name, cfg.L1.Cache.SizeBytes = "L1", 4<<10
	}
	l3 := func(cfg *memsys.Config) {
		cfg.Down = append(cfg.Down, memsys.LevelConfig{
			Cache: cache.Config{
				Name: "L3", SizeBytes: 1 << 20, BlockBytes: 64, Assoc: 2,
				Repl: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
			},
			CycleNS: 60,
		})
	}
	steps := []struct {
		pt    Point
		shape []func(*memsys.Config)
	}{
		{Point{16 << 10, 30, 1}, nil},
		{Point{64 << 10, 30, 2}, []func(*memsys.Config){l3}},
		{Point{64 << 10, 20, 1}, []func(*memsys.Config){unified}},
		{Point{256 << 10, 40, 4}, []func(*memsys.Config){l1KB(8)}},
		{Point{16 << 10, 20, 2}, []func(*memsys.Config){unified, l3}},
		{Point{32 << 10, 10, 1}, nil},
		{Point{128 << 10, 30, 8}, []func(*memsys.Config){l1KB(1)}},
		{Point{32 << 10, 30, 2}, []func(*memsys.Config){l1KB(4), l3}},
		{Point{512 << 10, 20, 1}, []func(*memsys.Config){unified}},
		{Point{8 << 10, 40, 1}, nil},
		{Point{64 << 10, 10, 4}, []func(*memsys.Config){l3}},
		{Point{16 << 10, 50, 1}, []func(*memsys.Config){l1KB(4)}},
	}
	shapes := map[Point][]func(*memsys.Config){}
	var pts []Point
	for _, s := range steps {
		shapes[s.pt] = s.shape
		pts = append(pts, s.pt)
	}
	r := Runner{
		Configure: func(pt Point) memsys.Config {
			cfg := testConfigure(pt)
			for _, shape := range shapes[pt] {
				shape(&cfg)
			}
			return cfg
		},
		Arena:       testArena(t),
		CPU:         cpu.Config{CycleNS: 10, WarmupRefs: 5000, FlushOnSwitch: true},
		Parallelism: 1,
	}
	got, err := r.RunPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range pts {
		want, err := cpu.Run(memsys.MustNew(r.Configure(pt)), r.Arena.Cursor(), r.CPU)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i].Run, want) {
			t.Fatalf("point %d (%v) differs from a fresh hierarchy's run:\nfresh:  %+v\nreused: %+v", i, pt, want, got[i].Run)
		}
	}
}
