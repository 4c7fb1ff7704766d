package coord_test

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mlcache/internal/coord"
	"mlcache/internal/coord/chaos"
	"mlcache/internal/cpu"
	"mlcache/internal/experiments"
	"mlcache/internal/sweep"
)

// End-to-end tests: a real coordinator behind httptest, real workers over
// HTTP, and deterministic fault injection on each worker's transport. The
// invariant under every fault schedule is the tentpole guarantee — the
// merged grid CSV is byte-identical to a fault-free single-process run, and
// every grid point is merged exactly once.

func chaosSpec() coord.JobSpec {
	return coord.JobSpec{
		SizesBytes: []int64{8192, 16384, 32768},
		CyclesNS:   []int64{2 * experiments.CPUCycleNS, 3 * experiments.CPUCycleNS},
		Assoc:      1,
		L1KB:       4,
		Refs:       20000,
		Seed:       1,
	} // 6 grid points
}

// referenceRun is the ground truth: the same runner construction every
// worker uses, driven sequentially in-process.
func referenceRun(t *testing.T, spec coord.JobSpec) []sweep.Result {
	t.Helper()
	arena, closer, _, err := spec.MaterializeArena(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	runner := spec.RunnerFor(arena)
	runner.Parallelism = 1
	results, err := runner.RunContext(context.Background(), spec.Points(), sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("reference point %s failed: %v", r.Point, r.Err)
		}
	}
	return results
}

func renderCSV(t *testing.T, results []sweep.Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := sweep.WriteTable(&buf, results, experiments.CPUCycleNS, true); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// fleetWorker describes one worker and its fault schedule. kill cancels the
// worker's context the moment any of its rules fires — a crash, not just a
// network fault.
type fleetWorker struct {
	id    string
	rules []chaos.Rule
	kill  bool
}

// startGrid runs c's grid in the background and returns a function that
// waits for RunContext's results.
func startGrid(ctx context.Context, c *coord.Coordinator, spec coord.JobSpec, opts sweep.Options) func() ([]sweep.Result, error) {
	type ran struct {
		results []sweep.Result
		err     error
	}
	done := make(chan ran, 1)
	go func() {
		results, err := c.RunContext(ctx, spec.Points(), opts)
		done <- ran{results, err}
	}()
	return func() ([]sweep.Result, error) {
		r := <-done
		return r.results, r.err
	}
}

// mustFinish waits for the grid and fails the test unless every point
// was merged or skipped.
func mustFinish(t *testing.T, wait func() ([]sweep.Result, error)) []sweep.Result {
	t.Helper()
	results, err := wait()
	if err != nil {
		done := 0
		for _, r := range results {
			if r.Err == nil {
				done++
			}
		}
		t.Fatalf("grid never completed (%d/%d points): %v", done, len(results), err)
	}
	return results
}

// runFleet runs the coordinator + workers to completion, skipping the
// points of prior and filling their results back in from it as a resumed
// sweep does. It returns the merged CSV, a per-point merge count (each
// point must merge exactly once; the counter hangs off Options.OnResult,
// which the coordinator fires only for first writes), and every shard a
// lease response handed to a worker.
func runFleet(t *testing.T, cfg coord.Config, prior map[int]cpu.Result, fleet []fleetWorker) (string, map[string]int, map[int]bool) {
	t.Helper()
	var mergeMu sync.Mutex
	merges := map[string]int{}
	pts := cfg.Job.Points()
	opts := sweep.Options{
		Skip: func(pt sweep.Point) bool {
			for i := range prior {
				if pts[i] == pt {
					return true
				}
			}
			return false
		},
		OnResult: func(r sweep.Result) {
			mergeMu.Lock()
			merges[r.Point.String()]++
			mergeMu.Unlock()
		},
	}
	c, err := coord.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var leasedMu sync.Mutex
	leased := map[int]bool{}
	api := c.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, r)
		var lr coord.LeaseResponse
		if r.URL.Path == coord.PathLease && json.Unmarshal(rec.Body.Bytes(), &lr) == nil && lr.Shards > 0 {
			leasedMu.Lock()
			leased[lr.Shard] = true
			leasedMu.Unlock()
		}
		maps.Copy(w.Header(), rec.Header())
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	wait := startGrid(ctx, c, cfg.Job, opts)

	var wg sync.WaitGroup
	errs := make([]error, len(fleet))
	for i, fw := range fleet {
		wctx, wcancel := context.WithCancel(ctx)
		defer wcancel()
		tr := &chaos.Transport{Rules: fw.rules}
		if fw.kill {
			tr.OnFire = func(chaos.Rule, *http.Request) { wcancel() }
		}
		w := &coord.Worker{
			ID:          fw.id,
			Coordinator: srv.URL,
			Client:      &http.Client{Transport: tr},
			Parallelism: 1,
			Logf:        t.Logf,
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.Run(wctx)
		}(i)
	}

	results := mustFinish(t, wait)
	wg.Wait() // workers drain naturally: next lease reports Done
	for i, fw := range fleet {
		if !fw.kill && errs[i] != nil {
			t.Errorf("worker %s exited with error: %v", fw.id, errs[i])
		}
	}
	for i, run := range prior {
		if !results[i].Skipped {
			t.Errorf("prior point %s not Skipped", results[i].Point)
		}
		results[i].Run = run
	}
	mergeMu.Lock()
	defer mergeMu.Unlock()
	counts := make(map[string]int, len(merges))
	for k, v := range merges {
		counts[k] = v
	}
	leasedMu.Lock()
	defer leasedMu.Unlock()
	return renderCSV(t, results), counts, leased
}

// assertMergedOnce checks no fault schedule double-counted or dropped a
// grid point.
func assertMergedOnce(t *testing.T, spec coord.JobSpec, counts map[string]int, skip map[string]bool) {
	t.Helper()
	for _, pt := range spec.Points() {
		want := 1
		if skip[pt.String()] {
			want = 0
		}
		if counts[pt.String()] != want {
			t.Errorf("point %s merged %d times, want %d", pt, counts[pt.String()], want)
		}
	}
	if len(counts) > len(spec.Points()) {
		t.Errorf("merged %d distinct points, grid has only %d", len(counts), len(spec.Points()))
	}
}

func TestDistributedMatchesSingleProcess(t *testing.T) {
	spec := chaosSpec()
	want := renderCSV(t, referenceRun(t, spec))
	got, counts, _ := runFleet(t,
		coord.Config{Job: spec, Shards: 3, LeaseTTL: 2 * time.Second}, nil,
		[]fleetWorker{{id: "w1"}, {id: "w2"}})
	if got != want {
		t.Errorf("distributed CSV differs from single-process run:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	assertMergedOnce(t, spec, counts, nil)
}

func TestDistributedSurvivesHeartbeatLoss(t *testing.T) {
	spec := chaosSpec()
	want := renderCSV(t, referenceRun(t, spec))
	// Worker w1 loses every heartbeat it ever sends; results still arrive
	// via its complete uploads, and sustained beat loss at worst costs it
	// the lease — never a result.
	got, counts, _ := runFleet(t,
		coord.Config{Job: spec, Shards: 3, LeaseTTL: time.Second, Heartbeat: 50 * time.Millisecond}, nil,
		[]fleetWorker{
			{id: "w1", rules: []chaos.Rule{{Path: coord.PathHeartbeat, From: 1, To: -1, Mode: chaos.Drop}}},
			{id: "w2"},
		})
	if got != want {
		t.Errorf("CSV under total heartbeat loss differs:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	assertMergedOnce(t, spec, counts, nil)
}

func TestDistributedSurvivesWorkerKilledMidRun(t *testing.T) {
	spec := chaosSpec()
	want := renderCSV(t, referenceRun(t, spec))
	// Worker w1's network goes down for good on its 3rd request — right
	// after it leased its first shard — and the kill hook crashes the
	// process at the same instant. Its lease expires and the shard is
	// retried on w2.
	got, counts, _ := runFleet(t,
		coord.Config{
			Job: spec, Shards: 3,
			LeaseTTL: 300 * time.Millisecond, Heartbeat: 60 * time.Millisecond,
			RetryBase: 50 * time.Millisecond, RetryMax: 500 * time.Millisecond,
		}, nil,
		[]fleetWorker{
			{id: "w1", kill: true, rules: []chaos.Rule{{From: 3, To: -1, Mode: chaos.Down}}},
			{id: "w2"},
		})
	if got != want {
		t.Errorf("CSV after worker kill differs:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	assertMergedOnce(t, spec, counts, nil)
}

func TestDistributedSurvivesTornAndDelayedResponses(t *testing.T) {
	spec := chaosSpec()
	want := renderCSV(t, referenceRun(t, spec))
	// w1's first lease response tears mid-JSON (the lease was granted
	// server-side; the retry must re-grant, not double-grant) and its
	// uploads straggle behind a delay. w2's first complete tears too.
	got, counts, _ := runFleet(t,
		coord.Config{Job: spec, Shards: 3, LeaseTTL: 2 * time.Second}, nil,
		[]fleetWorker{
			{id: "w1", rules: []chaos.Rule{
				{Path: coord.PathLease, From: 1, Mode: chaos.Torn},
				{Path: coord.PathComplete, From: 1, To: -1, Mode: chaos.Delay, Delay: 150 * time.Millisecond},
			}},
			{id: "w2", rules: []chaos.Rule{
				{Path: coord.PathComplete, From: 1, Mode: chaos.Torn},
			}},
		})
	if got != want {
		t.Errorf("CSV under torn/delayed responses differs:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	assertMergedOnce(t, spec, counts, nil)
}

func TestDistributedSurvivesBlackholedUploads(t *testing.T) {
	spec := chaosSpec()
	want := renderCSV(t, referenceRun(t, spec))
	// The sharpest idempotency test: w1's first two complete uploads are
	// processed by the coordinator but the responses are lost, so w1
	// retransmits shards the server has already merged. First-writer-wins
	// must absorb the duplicates without double-counting a single point.
	got, counts, _ := runFleet(t,
		coord.Config{Job: spec, Shards: 3, LeaseTTL: 2 * time.Second}, nil,
		[]fleetWorker{
			{id: "w1", rules: []chaos.Rule{{Path: coord.PathComplete, From: 1, To: 2, Mode: chaos.Blackhole}}},
			{id: "w2"},
		})
	if got != want {
		t.Errorf("CSV under blackholed uploads differs:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	assertMergedOnce(t, spec, counts, nil)
}

func TestLocalFallbackCompletesGridWithoutWorkers(t *testing.T) {
	spec := chaosSpec()
	want := renderCSV(t, referenceRun(t, spec))
	c, err := coord.New(coord.Config{
		Job: spec, Shards: 3,
		LeaseTTL:           time.Second,
		LocalFallbackAfter: 50 * time.Millisecond,
		LocalParallelism:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	results, err := c.RunContext(ctx, spec.Points(), sweep.Options{})
	if err != nil {
		t.Fatalf("coordinator with zero workers: %v", err)
	}
	if got := renderCSV(t, results); got != want {
		t.Errorf("local-fallback CSV differs:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestDistributedResumeFromPrior(t *testing.T) {
	spec := chaosSpec()
	ref := referenceRun(t, spec)
	// Skip two already-journaled points (a resumed run): they render
	// "ckpt" exactly like the local resume path, and the workers only
	// compute — and the merge hook only fires for — the rest. The two
	// points make up shard 0, which is never leased.
	prior := map[int]cpu.Result{0: ref[0].Run, 3: ref[3].Run}
	wantResults := make([]sweep.Result, len(ref))
	copy(wantResults, ref)
	for idx := range prior {
		wantResults[idx].Skipped = true
	}
	want := renderCSV(t, wantResults)
	skip := map[string]bool{ref[0].Point.String(): true, ref[3].Point.String(): true}

	got, counts, leased := runFleet(t,
		coord.Config{Job: spec, Shards: 3, LeaseTTL: 2 * time.Second}, prior,
		[]fleetWorker{{id: "w1"}, {id: "w2"}})
	if got != want {
		t.Errorf("resumed CSV differs:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	assertMergedOnce(t, spec, counts, skip)
	if leased[0] {
		t.Errorf("shard 0 holds only skipped points but was leased; leased shards %v", leased)
	}
}
