package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"mlcache/internal/checkpoint"
	"mlcache/internal/cpu"
	"mlcache/internal/memsys"
	"mlcache/internal/synth"
	"mlcache/internal/trace"
)

func gridPoints(sizes, cycles int) []Point {
	var pts []Point
	for i := 0; i < sizes; i++ {
		for j := 0; j < cycles; j++ {
			pts = append(pts, Point{
				L2SizeBytes: int64(8*1024) << i,
				L2CycleNS:   int64(10 * (j + 1)),
				L2Assoc:     1,
			})
		}
	}
	return pts
}

func TestRunContextMatchesRunPoints(t *testing.T) {
	r := Runner{
		Configure: testConfigure,
		Arena:     testArena(t),
		CPU:       cpu.Config{CycleNS: 10, WarmupRefs: 5000},
	}
	pts := gridPoints(2, 2)
	want, err := r.RunPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.RunContext(context.Background(), pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Err != nil || got[i].Skipped {
			t.Fatalf("point %v: err=%v skipped=%v", got[i].Point, got[i].Err, got[i].Skipped)
		}
		if got[i].Run.TimeNS != want[i].Run.TimeNS {
			t.Errorf("point %v: TimeNS %d != %d", got[i].Point, got[i].Run.TimeNS, want[i].Run.TimeNS)
		}
	}
}

func TestRunContextCancelMidGrid(t *testing.T) {
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
			if atomic.AddInt32(&completed, 1) == 3 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) != len(pts) {
		t.Fatalf("got %d results for %d points", len(results), len(pts))
	}
	var ok, failed int
	for _, res := range results {
		switch {
		case res.OK():
			ok++
		case res.Err != nil && !Canceled(res.Err):
			t.Errorf("point %v: unexpected non-cancel error %v", res.Point, res.Err)
		default:
			failed++
		}
	}
	if ok != 3 {
		t.Errorf("completed points = %d, want 3", ok)
	}
	if failed != len(pts)-3 {
		t.Errorf("cancelled points = %d, want %d", failed, len(pts)-3)
	}
}

func TestRunContextPanicIsolated(t *testing.T) {
	bad := Point{L2SizeBytes: 16 * 1024, L2CycleNS: 20, L2Assoc: 1}
	r := Runner{
		Configure: func(pt Point) memsys.Config {
			if pt == bad {
				panic("injected fault")
			}
			return testConfigure(pt)
		},
		Arena:       testArena(t),
		CPU:         cpu.Config{CycleNS: 10},
		Parallelism: 2,
	}
	pts := gridPoints(2, 2) // includes bad: sizes {8K,16K} × cycles {10,20}
	results, err := r.RunContext(context.Background(), pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var panicked int
	for _, res := range results {
		if res.Point == bad {
			var pe *PanicError
			if !errors.As(res.Err, &pe) {
				t.Fatalf("bad point err = %v, want *PanicError", res.Err)
			}
			if pe.Value != "injected fault" || len(pe.Stack) == 0 {
				t.Errorf("PanicError = %v, stack %d bytes", pe.Value, len(pe.Stack))
			}
			panicked++
			continue
		}
		if !res.OK() {
			t.Errorf("healthy point %v failed: %v", res.Point, res.Err)
		}
	}
	if panicked != 1 {
		t.Errorf("panicked points = %d, want 1", panicked)
	}
}

func TestRunContextRetries(t *testing.T) {
	var calls int32
	r := Runner{
		Configure: func(pt Point) memsys.Config {
			if atomic.AddInt32(&calls, 1) == 1 {
				panic("transient fault")
			}
			return testConfigure(pt)
		},
		Arena: testArena(t),
		CPU:   cpu.Config{CycleNS: 10},
	}
	results, err := r.RunContext(context.Background(), gridPoints(1, 1), Options{
		Retries: 2,
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].OK() {
		t.Fatalf("point failed after retries: %v", results[0].Err)
	}
	if results[0].Attempts != 2 {
		t.Errorf("attempts = %d, want 2", results[0].Attempts)
	}
}

func TestRunContextPointTimeout(t *testing.T) {
	r := Runner{
		Configure: testConfigure,
		Arena:     testArena(t),
		CPU:       cpu.Config{CycleNS: 10},
	}
	// The deadline has passed by the time the CPU loop first polls its
	// per-batch Interrupt check.
	results, err := r.RunContext(context.Background(), gridPoints(1, 1), Options{
		PointTimeout: time.Nanosecond,
	})
	if err != nil {
		t.Fatalf("grid error = %v, want nil (timeout is per-point)", err)
	}
	if !errors.Is(results[0].Err, context.DeadlineExceeded) {
		t.Errorf("point err = %v, want DeadlineExceeded", results[0].Err)
	}
}

// TestResumeAfterInterrupt is the end-to-end fault story: a 36-point grid
// with one injected panic is interrupted mid-run (the SIGINT path), results
// journaled so far are loaded back, and the resumed run simulates exactly
// the remaining points.
func TestResumeAfterInterrupt(t *testing.T) {
	pts := gridPoints(6, 6)
	if len(pts) < 32 {
		t.Fatalf("grid too small: %d", len(pts))
	}
	bad := pts[17]
	arena, err := trace.Materialize(trace.Limit(synth.PaperStream(1, 30000), 4000))
	if err != nil {
		t.Fatal(err)
	}
	mk := func() Runner {
		return Runner{
			Configure: func(pt Point) memsys.Config {
				if pt == bad {
					panic("injected fault")
				}
				return testConfigure(pt)
			},
			Arena:       arena,
			CPU:         cpu.Config{CycleNS: 10},
			Parallelism: 2,
		}
	}
	ckptPath := filepath.Join(t.TempDir(), "sweep.ckpt")

	// Phase 1: interrupted run, journaling completions.
	j, err := checkpoint.Open(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var phase1 int32
	_, err = mk().RunContext(ctx, pts, Options{
		OnResult: func(res Result) {
			if err := j.Append(res.Point.String(), res.Run); err != nil {
				t.Errorf("journal: %v", err)
			}
			if atomic.AddInt32(&phase1, 1) == 10 {
				cancel()
			}
		},
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("phase 1 err = %v, want Canceled", err)
	}
	j.Close()
	journaled := int(atomic.LoadInt32(&phase1))

	// Phase 2: resume. Skip journaled points, simulate the rest.
	set, err := checkpoint.Load(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != journaled || set.Dropped != 0 {
		t.Fatalf("loaded %d records (%d dropped), journaled %d", set.Len(), set.Dropped, journaled)
	}
	var resimulated int32
	results, err := mk().RunContext(context.Background(), pts, Options{
		Skip:     func(pt Point) bool { return set.Has(pt.String()) },
		OnResult: func(Result) { atomic.AddInt32(&resimulated, 1) },
	})
	if err != nil {
		t.Fatal(err)
	}

	var skipped, ok, failed int
	for _, res := range results {
		switch {
		case res.Skipped:
			if !set.Has(res.Point.String()) {
				t.Errorf("point %v skipped but not journaled", res.Point)
			}
			skipped++
		case res.OK():
			ok++
		default:
			if res.Point != bad {
				t.Errorf("point %v failed: %v", res.Point, res.Err)
			}
			failed++
		}
	}
	if skipped != journaled {
		t.Errorf("skipped = %d, want %d (nothing journaled may re-run)", skipped, journaled)
	}
	if failed != 1 {
		t.Errorf("failed = %d, want 1 (the injected panic)", failed)
	}
	if ok != len(pts)-journaled-1 {
		t.Errorf("resumed simulations = %d, want %d", ok, len(pts)-journaled-1)
	}
	if got := int(atomic.LoadInt32(&resimulated)); got != ok {
		t.Errorf("OnResult fired %d times, want %d", got, ok)
	}

	// Salvage: journaled results unmarshal back into usable cpu.Results.
	for key, raw := range set.Records {
		var run cpu.Result
		if err := json.Unmarshal(raw, &run); err != nil {
			t.Fatalf("journaled %s: %v", key, err)
		}
		if run.Instructions == 0 {
			t.Errorf("journaled %s: empty result", key)
		}
	}
}

func TestRunPointsSurfacesPanic(t *testing.T) {
	r := Runner{
		Configure: func(Point) memsys.Config { panic("boom") },
		Arena:     testArena(t),
		CPU:       cpu.Config{CycleNS: 10},
	}
	_, err := r.RunPoints(gridPoints(1, 1))
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("RunPoints err = %v, want *PanicError", err)
	}
}
