package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"mlcache/internal/checkpoint"
	"mlcache/internal/cpu"
	"mlcache/internal/sweep"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRestartReplaysResultCache: a server that completed a grid and then
// died without any shutdown (no Close — the crash case) is replaced by a
// fresh process over the same state dir, which serves the same grid
// entirely from the journal: zero points simulated, byte-identical table.
func TestRestartReplaysResultCache(t *testing.T) {
	dir := t.TempDir()
	spec := gridSpec()
	want := referenceTable(t, spec, false)
	npts := len(spec.Points())

	s1 := newTestServer(t, Config{StateDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	js := postJob(t, ts1.Client(), ts1.URL+"/jobs", spec)
	if !js.gotDone || js.done.Table != want {
		t.Fatalf("first run: done=%t table ok=%t", js.gotDone, js.done.Table == want)
	}
	ts1.Close()
	// No s1.Close(): the process "crashed" with the journals mid-life.

	s2 := newTestServer(t, Config{StateDir: dir})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if got := s2.metrics.pointsReplayed.Load(); got != int64(npts) {
		t.Fatalf("replayed %d points, want %d", got, npts)
	}
	js2 := postJob(t, ts2.Client(), ts2.URL+"/jobs", spec)
	if js2.done.Cached != npts {
		t.Errorf("restarted server cached %d of %d points", js2.done.Cached, npts)
	}
	if got := s2.metrics.pointsTotal.Load(); got != 0 {
		t.Errorf("restarted server simulated %d points, want 0", got)
	}
	if js2.done.Table != want {
		t.Errorf("replayed table differs from reference:\ngot:\n%s\nwant:\n%s", js2.done.Table, want)
	}
}

// TestRestartMidGridZeroRecompute is the crash-mid-grid acceptance check:
// the client vanishes partway through a big grid (so only a prefix of
// points ever completed and hit the journal), the server is replaced
// without any shutdown, and the resubmitted grid must complete with every
// previously finished point replayed — across both lifetimes each point
// is simulated at most once, and the final table is byte-identical to an
// uninterrupted run.
func TestRestartMidGridZeroRecompute(t *testing.T) {
	dir := t.TempDir()
	spec := gridSpec()
	spec.SizesBytes = []int64{4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10}
	spec.CyclesNS = []int64{10, 20, 30, 40}
	spec.Refs = 300000
	npts := len(spec.Points())
	want := referenceTable(t, spec, false)

	s1 := newTestServer(t, Config{StateDir: dir})
	ts1 := httptest.NewServer(s1.Handler())

	// Stream until at least one completed point, then hang up mid-grid.
	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(spec)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts1.URL+"/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts1.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	for i := 0; i < 2; i++ { // start line + first result line
		if _, err := br.ReadBytes('\n'); err != nil {
			t.Fatalf("reading line %d: %v", i, err)
		}
	}
	cancel()
	resp.Body.Close()
	waitFor(t, "cancellation", func() bool {
		return s1.metrics.jobsCanceled.Load() == 1 && s1.metrics.jobsActive.Load() == 0
	})
	simulated1 := s1.metrics.pointsTotal.Load()
	if simulated1 == 0 || simulated1 >= int64(npts) {
		t.Fatalf("first life simulated %d of %d points; want a strict prefix", simulated1, npts)
	}
	ts1.Close() // crash: no s1.Close()

	s2 := newTestServer(t, Config{StateDir: dir})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if got := s2.metrics.pointsReplayed.Load(); got != simulated1 {
		t.Fatalf("replayed %d points, want %d", got, simulated1)
	}
	js := postJob(t, ts2.Client(), ts2.URL+"/jobs", spec)
	if !js.gotDone {
		t.Fatal("restarted run never finished")
	}
	if js.done.Cached != int(simulated1) {
		t.Errorf("restarted run served %d points from the journal, want %d", js.done.Cached, simulated1)
	}
	// Zero recompute: the two lifetimes together simulated each point
	// exactly once.
	if got := simulated1 + s2.metrics.pointsTotal.Load(); got != int64(npts) {
		t.Errorf("lifetimes simulated %d points total, want %d (recompute!)", got, npts)
	}
	for _, rl := range js.results {
		if rl.Cached && rl.Run == nil {
			t.Errorf("replayed point %d has no result payload", rl.Index)
		}
	}
	if js.done.Table != want {
		t.Errorf("post-restart table differs from uninterrupted reference:\ngot:\n%s\nwant:\n%s", js.done.Table, want)
	}
}

// TestResumeInterruptedJobs: a job journaled as running with no terminal
// record (the SIGKILL case) is finished in the background by the
// restarted server — by the time the client retries, the grid replays
// entirely from cache — and its terminal state is journaled so a second
// restart does not resume it again.
func TestResumeInterruptedJobs(t *testing.T) {
	dir := t.TempDir()
	spec := gridSpec()
	want := referenceTable(t, spec, false)
	npts := len(spec.Points())

	// Craft the journal a killed server would leave: a running job record
	// and no results.
	jobs, err := checkpoint.OpenSegmented(dir, "jobs", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jobs.Append(jobKey(7), jobRecord{Spec: spec, Status: statusRunning}); err != nil {
		t.Fatal(err)
	}
	jobs.Close()

	s := newTestServer(t, Config{StateDir: dir})
	if n := s.ResumeInterrupted(); n != 1 {
		t.Fatalf("ResumeInterrupted = %d, want 1", n)
	}
	waitFor(t, "background resume", func() bool { return s.metrics.jobsResumed.Load() == 1 })
	if got := s.metrics.pointsTotal.Load(); got != int64(npts) {
		t.Errorf("resume simulated %d points, want %d", got, npts)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	js := postJob(t, ts.Client(), ts.URL+"/jobs", spec)
	if js.done.Cached != npts {
		t.Errorf("retry after resume cached %d of %d points", js.done.Cached, npts)
	}
	if js.done.Table != want {
		t.Error("resumed grid table differs from reference")
	}

	// The job's terminal record is durable: reload and check.
	set, err := checkpoint.LoadSegmented(dir, "jobs")
	if err != nil {
		t.Fatal(err)
	}
	var rec jobRecord
	if err := json.Unmarshal(set.Records[jobKey(7)], &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Status != statusDone {
		t.Errorf("resumed job journaled as %q, want %q", rec.Status, statusDone)
	}
	// New job IDs continue past the journaled sequence.
	if s.jobSeq <= 7 {
		t.Errorf("jobSeq = %d, want > 7", s.jobSeq)
	}
}

// TestRestartReplaysInJournalOrder: a journal holding more points than the
// result cache replays in journal order, so every restart keeps the same
// points, the most recently journaled, and the replay counter counts the
// points resident rather than the points journaled.
func TestRestartReplaysInJournalOrder(t *testing.T) {
	dir := t.TempDir()
	results, err := checkpoint.OpenSegmented(dir, "results", 0)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("base|point-%d", (i*5)%8) // neither sorted nor reversed
		if _, err := results.Append(key, cpu.Result{TimeNS: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}
	if err := results.Close(); err != nil {
		t.Fatal(err)
	}
	for restart := 0; restart < 5; restart++ {
		s := newTestServer(t, Config{StateDir: dir, ResultCachePoints: 4})
		if got := s.metrics.pointsReplayed.Load(); got != 4 {
			t.Errorf("restart %d: replayed counter %d, want 4", restart, got)
		}
		for i, key := range keys {
			run, ok := s.results.getKey(key)
			if want := i >= 4; ok != want || ok && run.TimeNS != int64(i+1) {
				t.Errorf("restart %d: %s (journaled #%d) resident=%t TimeNS=%d, want resident=%t", restart, key, i, ok, run.TimeNS, want)
			}
		}
		s.Close()
	}
}

// TestReplayTimedOnMetrics: New times its replay of the state journals,
// exports it as mlcserve_state_replay_seconds and logs it on the
// "state: replayed" line; a server without a state directory replays
// nothing and reads 0.
func TestReplayTimedOnMetrics(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Config{StateDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	if js := postJob(t, ts1.Client(), ts1.URL+"/jobs", gridSpec()); !js.gotDone {
		t.Fatal("job never finished")
	}
	ts1.Close()
	s1.Close()
	for _, durable := range []bool{true, false} {
		t.Run(fmt.Sprintf("durable=%t", durable), func(t *testing.T) {
			var logged []string
			cfg := Config{Logf: func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }}
			if durable {
				cfg.StateDir = dir
			}
			s := newTestServer(t, cfg)
			defer s.Close()
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			v, err := strconv.ParseFloat(metricSample(t, ts, "mlcserve_state_replay_seconds"), 64)
			if err != nil {
				t.Fatal(err)
			}
			if durable != (v > 0) || v < 0 {
				t.Errorf("mlcserve_state_replay_seconds = %g with a state dir %t", v, durable)
			}
			replayLine := regexp.MustCompile(`^state: replayed 4 points in [0-9]+ ms \(`)
			if found := slices.ContainsFunc(logged, replayLine.MatchString); found != durable {
				t.Errorf("replay line logged %t, want %t: %q", found, durable, logged)
			}
		})
	}
}

// replayPoints is BenchmarkReplay's journal size: 40 jobs of the 110-point
// Fig 4-1 grid, as in the serve-restart workload.
const replayPoints = 40 * 110

// replayDir is BenchmarkReplay's state directory, built by the first
// replayStateDir call and removed by TestMain.
var (
	replayOnce sync.Once
	replayDir  string
	replayErr  error
)

func replayStateDir() (string, error) {
	replayOnce.Do(func() {
		if replayDir, replayErr = os.MkdirTemp("", "replay-bench-"); replayErr == nil {
			replayErr = writeReplayJournal(replayDir)
		}
	})
	return replayDir, replayErr
}

func TestMain(m *testing.M) {
	code := m.Run()
	if replayDir != "" {
		os.RemoveAll(replayDir)
	}
	os.Exit(code)
}

// writeReplayJournal simulates the Fig 4-1 grid over a short synthetic
// workload and journals its results under replayPoints distinct point
// keys, one result base per 110 points.
func writeReplayJournal(dir string) error {
	spec := gridSpec()
	spec.SizesBytes = []int64{4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20}
	spec.CyclesNS = []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	spec.Refs = 10000
	arena, closer, _, err := spec.MaterializeArena(context.Background())
	if err != nil {
		return err
	}
	defer closer.Close()
	pts := spec.Points()
	runs, err := spec.RunnerFor(arena).RunContext(context.Background(), pts, sweep.Options{})
	if err != nil {
		return err
	}
	results, err := checkpoint.OpenSegmented(dir, "results", 0)
	if err != nil {
		return err
	}
	for i := 0; i < replayPoints; i++ {
		base := fmt.Sprintf("%016x", i/len(pts))
		if _, err := results.Append(pointKey(base, pts[i%len(pts)]), runs[i%len(pts)].Run); err != nil {
			results.Close()
			return err
		}
	}
	return results.Close()
}

// BenchmarkReplay times a restart's replay: New over a state directory
// whose results journal holds replayPoints simulated points.
func BenchmarkReplay(b *testing.B) {
	dir, err := replayStateDir()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(Config{StateDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if got := s.metrics.pointsReplayed.Load(); got != replayPoints {
			b.Fatalf("replayed %d points, want %d", got, replayPoints)
		}
		s.Close()
	}
}
