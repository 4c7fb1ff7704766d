package coord_test

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlcache/internal/coord"
	"mlcache/internal/experiments"
	"mlcache/internal/sweep"
)

// Tests of the executor contract every worker keeps, the coordinator's
// local fallback included: the lease outlives a slow point, and a worker
// stopped mid-shard hands over the points it finished.

// slowSpec is one shard's worth of eight points that each take a while to
// simulate: with CheckInvariants the hierarchy checks every cache line
// after every access.
func slowSpec() coord.JobSpec {
	return coord.JobSpec{
		SizesBytes:      []int64{8192},
		CyclesNS:        sweep.CyclesRange(1, 8, experiments.CPUCycleNS),
		Assoc:           1,
		L1KB:            4,
		Refs:            25_000,
		Seed:            1,
		CheckInvariants: true,
	}
}

// pointTime measures how long one of spec's points takes to simulate on
// this host and build; the race detector slows the invariant checker
// about twentyfold, so fixed stop times cannot serve both builds.
func pointTime(t *testing.T, spec coord.JobSpec) time.Duration {
	t.Helper()
	arena, closer, _, err := spec.MaterializeArena(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	runner := spec.RunnerFor(arena)
	runner.Parallelism = 1
	start := time.Now()
	if _, err := runner.RunContext(context.Background(), spec.Points()[:1], sweep.Options{}); err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

// logTap is a coordinator or worker Logf that logs through t and counts
// the lines containing substr; seen is closed at the first.
type logTap struct {
	t      *testing.T
	substr string
	n      atomic.Int64
	once   sync.Once
	seen   chan struct{}
}

func newLogTap(t *testing.T, substr string) *logTap {
	return &logTap{t: t, substr: substr, seen: make(chan struct{})}
}

func (l *logTap) logf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	if strings.Contains(line, l.substr) {
		l.n.Add(1)
		l.once.Do(func() { close(l.seen) })
	}
	l.t.Log(line)
}

// wait blocks until a line containing substr was logged.
func (l *logTap) wait() {
	l.t.Helper()
	select {
	case <-l.seen:
	case <-time.After(time.Minute):
		l.t.Fatalf("no log line contains %q", l.substr)
	}
}

// TestLocalFallbackKeepsLeaseThroughSlowPoint: the fallback's one point
// lasts several lease lifetimes, and its heartbeats keep the lease, so
// the shard is never failed and retried.
func TestLocalFallbackKeepsLeaseThroughSlowPoint(t *testing.T) {
	spec := slowSpec()
	spec.CyclesNS = spec.CyclesNS[:1]
	spec.Refs = 100_000
	// Invariant checking never changes a result, so the reference can skip
	// it.
	unchecked := spec
	unchecked.CheckInvariants = false
	want := renderCSV(t, referenceRun(t, unchecked))

	lost := newLogTap(t, "lost by "+coord.LocalWorkerID)
	c, err := coord.New(coord.Config{
		Job:                spec,
		LeaseTTL:           100 * time.Millisecond,
		LocalFallbackAfter: 20 * time.Millisecond,
		LocalParallelism:   1,
		Logf:               lost.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	results, err := c.RunContext(ctx, spec.Points(), sweep.Options{})
	if err != nil {
		t.Fatalf("fallback run: %v", err)
	}
	if n := lost.n.Load(); n > 0 {
		t.Errorf("the fallback lost its lease %d time(s)", n)
	}
	if got := renderCSV(t, results); got != want {
		t.Errorf("fallback CSV differs:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestLocalFallbackInterruptMergesFinishedPoints: cancelled mid-shard
// before any heartbeat fell due, the fallback still merges every point it
// finished, and all of them before RunContext returns.
func TestLocalFallbackInterruptMergesFinishedPoints(t *testing.T) {
	spec := slowSpec()
	stopAfter := 4 * pointTime(t, spec)
	leased := newLogTap(t, "leased to "+coord.LocalWorkerID)
	c, err := coord.New(coord.Config{
		Job:                spec,
		Shards:             1,
		LeaseTTL:           time.Minute,
		LocalFallbackAfter: 20 * time.Millisecond,
		LocalParallelism:   1,
		Logf:               leased.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	var merged atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wait := startGrid(ctx, c, spec, sweep.Options{OnResult: func(sweep.Result) { merged.Add(1) }})

	leased.wait()
	time.Sleep(stopAfter)
	cancel()
	results, err := wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	// A merge the fallback made after RunContext returned shows once it
	// has stopped, as more merged points than done results.
	for c.LocalRunning() {
		time.Sleep(time.Millisecond)
	}
	finished := 0
	for _, res := range results {
		if res.Err == nil {
			finished++
		}
	}
	n := merged.Load()
	t.Logf("%d of %d points merged", n, len(results))
	if n == 0 || int(n) != finished {
		t.Errorf("%d point(s) merged, %d done in the results; want the same, at least one", n, finished)
	}
}

// TestWorkerStoppedMidShardHandsOverFinishedPoints: a worker whose
// context ends before its first heartbeat and before its shard is done
// hands the points it finished to the coordinator as it stops.
func TestWorkerStoppedMidShardHandsOverFinishedPoints(t *testing.T) {
	spec := slowSpec()
	stopAfter := 4 * pointTime(t, spec)
	leased := newLogTap(t, "leased to w")
	c, err := coord.New(coord.Config{Job: spec, Shards: 1, LeaseTTL: time.Minute, Logf: leased.logf})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	var merged atomic.Int64
	gridCtx, stopGrid := context.WithCancel(context.Background())
	defer stopGrid()
	wait := startGrid(gridCtx, c, spec, sweep.Options{OnResult: func(sweep.Result) { merged.Add(1) }})

	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	w := &coord.Worker{ID: "w", Coordinator: srv.URL, Parallelism: 1, Logf: t.Logf}
	ran := make(chan error, 1)
	go func() { ran <- w.Run(ctx) }()
	leased.wait()
	time.Sleep(stopAfter)
	stop()
	if err := <-ran; !errors.Is(err, context.Canceled) {
		t.Fatalf("worker Run = %v, want context.Canceled", err)
	}
	n := merged.Load()
	stopGrid()
	wait()
	t.Logf("%d of %d points merged", n, len(spec.Points()))
	if n == 0 {
		t.Error("the stopped worker's finished points were not merged")
	}
}

// TestLocalFallbackRetriesOncePerInterval: a fallback that cannot start
// (its trace is missing) is retried once per quiet LocalFallbackAfter,
// not on every tick of the coordinator's clock.
func TestLocalFallbackRetriesOncePerInterval(t *testing.T) {
	spec := chaosSpec()
	spec.TracePath = filepath.Join(t.TempDir(), "missing.mlct")
	starts := newLogTap(t, "running remaining shards in-process")
	const after = 100 * time.Millisecond
	c, err := coord.New(coord.Config{
		Job:                spec,
		LeaseTTL:           time.Second,
		LocalFallbackAfter: after,
		Logf:               starts.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := c.RunContext(ctx, spec.Points(), sweep.Options{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunContext = %v, want context.DeadlineExceeded", err)
	}
	if n, most := starts.n.Load(), int64(time.Second/after)+1; n == 0 || n > most {
		t.Errorf("%d fallback starts in 1s, want 1 to %d", n, most)
	}
}
