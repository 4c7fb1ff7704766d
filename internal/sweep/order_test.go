package sweep

import (
	"bytes"
	"context"
	"testing"

	"mlcache/internal/cpu"
	"mlcache/internal/memsys"
)

// TestGeometryOrderGroups: the schedule must visit every point exactly
// once, with each (size, assoc) geometry contiguous and the input order
// preserved inside a group.
func TestGeometryOrderGroups(t *testing.T) {
	g := Grid{
		SizesBytes: []int64{8192, 16384},
		CyclesNS:   []int64{10, 20, 30},
		Assocs:     []int{1, 2},
	}
	pts := g.Points()
	order := GeometryOrder(pts)
	if len(order) != len(pts) {
		t.Fatalf("order has %d entries, want %d", len(order), len(pts))
	}
	seen := make([]bool, len(pts))
	type geom struct {
		size  int64
		assoc int
	}
	closed := map[geom]bool{}
	var cur geom
	lastIdx := -1
	for n, i := range order {
		if i < 0 || i >= len(pts) || seen[i] {
			t.Fatalf("order[%d] = %d is out of range or repeated", n, i)
		}
		seen[i] = true
		pg := geom{pts[i].L2SizeBytes, pts[i].L2Assoc}
		if n == 0 || pg != cur {
			if closed[pg] {
				t.Fatalf("geometry %+v appears in two separate runs", pg)
			}
			closed[cur] = true
			cur = pg
			lastIdx = -1
		}
		if i < lastIdx {
			t.Fatalf("input order not preserved inside geometry %+v", pg)
		}
		lastIdx = i
	}
}

// TestGeometryOrderSingleAssocIdentity: a single-associativity size-major
// grid is already geometry-grouped, so the schedule is the identity — the
// classic Fig 4-1 sweep is fed exactly as before.
func TestGeometryOrderSingleAssocIdentity(t *testing.T) {
	g := Grid{SizesBytes: SizesPow2(4, 256), CyclesNS: CyclesRange(1, 5, 10)}
	order := GeometryOrder(g.Points())
	for n, i := range order {
		if n != i {
			t.Fatalf("order[%d] = %d, want identity for a single-assoc grid", n, i)
		}
	}
}

// TestGeometryScheduleByteIdenticalTable: the geometry-ordered, parallel
// engine must render exactly the same table bytes as fresh
// one-hierarchy-per-point simulations performed in input order.
func TestGeometryScheduleByteIdenticalTable(t *testing.T) {
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
		t.Errorf("tables differ:\n--- geometry-scheduled ---\n%s--- reference ---\n%s",
			gotTable.String(), wantTable.String())
	}
}
