package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mlcache/internal/coord"
	"mlcache/internal/experiments"
	"mlcache/internal/sweep"
)

// newTestServer builds a Server or fails the test.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// gridSpec is a small 2x2 grid over a short synthetic workload: fast
// enough for -race, big enough to exercise the streaming path.
func gridSpec() coord.JobSpec {
	return coord.JobSpec{
		SizesBytes: []int64{16 * 1024, 64 * 1024},
		CyclesNS:   []int64{10, 20},
		Assoc:      1,
		L1KB:       4,
		Refs:       30000,
		Seed:       1,
	}
}

// referenceTable renders the grid exactly the way cmd/sweep does: a fresh
// runner from the spec, the plain engine, WriteTable.
func referenceTable(t *testing.T, spec coord.JobSpec, asCSV bool) string {
	t.Helper()
	arena, closer, _, err := spec.MaterializeArena(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	results, err := spec.RunnerFor(arena).RunContext(context.Background(), spec.Points(), sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sweep.WriteTable(&buf, results, experiments.CPUCycleNS, asCSV); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// jobStream is one parsed NDJSON response.
type jobStream struct {
	status  int
	start   startLine
	results []resultLine
	done    doneLine
	gotDone bool
}

func postJob(t *testing.T, client *http.Client, url string, spec coord.JobSpec) jobStream {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return parseStream(t, resp)
}

func parseStream(t *testing.T, resp *http.Response) jobStream {
	t.Helper()
	js := jobStream{status: resp.StatusCode}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return js
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24) // the final line carries a whole table
	first := true
	for sc.Scan() {
		raw := sc.Bytes()
		var probe struct {
			Done bool `json:"done"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", raw, err)
		}
		switch {
		case first:
			if err := json.Unmarshal(raw, &js.start); err != nil {
				t.Fatalf("bad start line %q: %v", raw, err)
			}
			first = false
		case probe.Done:
			if err := json.Unmarshal(raw, &js.done); err != nil {
				t.Fatalf("bad done line: %v", err)
			}
			js.gotDone = true
		default:
			var rl resultLine
			if err := json.Unmarshal(raw, &rl); err != nil {
				t.Fatalf("bad result line %q: %v", raw, err)
			}
			js.results = append(js.results, rl)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	return js
}

// TestJobStreamMatchesCLI: the tentpole acceptance check. A streamed job's
// final table must be byte-identical to a fresh cmd/sweep-style run, every
// grid point must appear exactly once on the stream, and a second
// identical job must be served entirely from the caches.
func TestJobStreamMatchesCLI(t *testing.T) {
	spec := gridSpec()
	want := referenceTable(t, spec, false)

	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	js := postJob(t, ts.Client(), ts.URL+"/jobs", spec)
	if js.status != http.StatusOK {
		t.Fatalf("status = %d", js.status)
	}
	if js.start.ArenaHit {
		t.Error("first job reported an arena hit")
	}
	npts := len(spec.Points())
	seen := map[int]int{}
	for _, rl := range js.results {
		seen[rl.Index]++
		if rl.Cached {
			t.Errorf("first job point %d served from cache", rl.Index)
		}
		if rl.Error != "" || rl.Run == nil {
			t.Errorf("point %d: error=%q run=%v", rl.Index, rl.Error, rl.Run)
		}
	}
	for i := 0; i < npts; i++ {
		if seen[i] != 1 {
			t.Errorf("point %d streamed %d times, want 1", i, seen[i])
		}
	}
	if !js.gotDone {
		t.Fatal("stream ended without a done line")
	}
	if js.done.Failed != 0 || js.done.Cached != 0 || js.done.Points != npts {
		t.Errorf("done = %+v", js.done)
	}
	if js.done.Table != want {
		t.Errorf("streamed table differs from CLI rendering:\ngot:\n%s\nwant:\n%s", js.done.Table, want)
	}

	// Second identical job: arena hit, every point from the result cache,
	// and still the exact same bytes.
	js2 := postJob(t, ts.Client(), ts.URL+"/jobs", spec)
	if !js2.start.ArenaHit {
		t.Error("second job missed the arena cache")
	}
	if js2.done.Cached != npts {
		t.Errorf("second job cached %d of %d points", js2.done.Cached, npts)
	}
	for _, rl := range js2.results {
		if !rl.Cached {
			t.Errorf("second job re-simulated point %d", rl.Index)
		}
	}
	if js2.done.Table != want {
		t.Error("cached replay table differs from CLI rendering")
	}

	// Observability: the counters that prove sharing happened must be on
	// the /metrics surface.
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"mlcserve_arena_cache_hits_total 1",
		fmt.Sprintf("mlcserve_points_cached_total %d", npts),
		fmt.Sprintf("mlcserve_points_total %d", npts),
		"mlcserve_jobs_total 2",
		"mlcserve_job_duration_seconds_count 2",
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestLegacyPlanFieldAccepted: a spec that still carries the retired
// "plan" field (as journals and clients written before its removal do) is
// accepted, and the field is ignored — the job streams the reference table.
func TestLegacyPlanFieldAccepted(t *testing.T) {
	spec := gridSpec()
	want := referenceTable(t, spec, false)

	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var fields map[string]any
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &fields); err != nil {
		t.Fatal(err)
	}
	fields["plan"] = "full"
	if body, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	js := parseStream(t, resp)
	if js.status != http.StatusOK || !js.gotDone {
		t.Fatalf("legacy spec: status %d, done %v", js.status, js.gotDone)
	}
	if js.done.Table != want {
		t.Errorf("legacy spec table differs from the reference:\ngot:\n%s\nwant:\n%s", js.done.Table, want)
	}
}

// TestJobCSV: the csv query parameter switches the final table to the CSV
// rendering, still byte-identical to the CLI's.
func TestJobCSV(t *testing.T) {
	spec := gridSpec()
	want := referenceTable(t, spec, true)

	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	js := postJob(t, ts.Client(), ts.URL+"/jobs?csv=1", spec)
	if !js.gotDone {
		t.Fatal("no done line")
	}
	if js.done.Table != want {
		t.Errorf("CSV table differs:\ngot:\n%s\nwant:\n%s", js.done.Table, want)
	}
}

// TestConcurrentJobsShareArena: two clients submitting the same workload
// at once coalesce into a single materialization, and both streams render
// the reference bytes.
func TestConcurrentJobsShareArena(t *testing.T) {
	spec := gridSpec()
	want := referenceTable(t, spec, false)

	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	streams := make([]jobStream, 2)
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			streams[i] = postJob(t, ts.Client(), ts.URL+"/jobs", spec)
		}(i)
	}
	wg.Wait()
	for i, js := range streams {
		if !js.gotDone {
			t.Fatalf("stream %d ended without done", i)
		}
		if js.done.Table != want {
			t.Errorf("stream %d table differs from reference", i)
		}
	}
	st := s.arenas.Stats()
	if st.Misses != 1 {
		t.Errorf("arena materializations = %d, want 1 (hits=%d)", st.Misses, st.Hits)
	}
}

// TestBackpressure429: with every slot busy and the tenant's queue share
// full, a new job is refused with 429 and a Retry-After hint rather than
// queued unboundedly; it is admitted again once capacity frees up.
func TestBackpressure429(t *testing.T) {
	s := newTestServer(t, Config{MaxJobs: 1, MaxQueue: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the only run slot and fill the anonymous tenant's queue
	// share (one waiter that never cancels).
	if ok, _ := s.queue.acquire(nil, s.anon); !ok {
		t.Fatal("could not take the run slot")
	}
	waiterDone := make(chan struct{})
	go func() {
		if ok, _ := s.queue.acquire(nil, s.anon); ok {
			defer s.queue.release()
		}
		close(waiterDone)
	}()
	for s.queue.queueDepth() != 1 {
		time.Sleep(time.Millisecond)
	}

	body, _ := json.Marshal(gridSpec())
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if s.metrics.jobsRejected.Load() != 1 {
		t.Errorf("jobsRejected = %d", s.metrics.jobsRejected.Load())
	}

	// Freeing the slot drains the queued waiter; a fresh submission then
	// proceeds end to end.
	s.queue.release()
	<-waiterDone
	js := postJob(t, ts.Client(), ts.URL+"/jobs", gridSpec())
	if js.status != http.StatusOK || !js.gotDone {
		t.Fatalf("queued job: status=%d done=%t", js.status, js.gotDone)
	}
}

// TestClientDisconnectCancelsJob: dropping the connection mid-grid cancels
// the job's context; the server records the cancellation and frees the
// slot instead of simulating for a vanished client.
func TestClientDisconnectCancelsJob(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A grid big enough that cancellation lands mid-simulation.
	spec := gridSpec()
	spec.SizesBytes = []int64{4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10}
	spec.CyclesNS = []int64{10, 20, 30, 40}
	spec.Refs = 300000

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body, _ := json.Marshal(spec)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the start line, then hang up.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadBytes('\n'); err != nil {
		t.Fatalf("reading start line: %v", err)
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for s.metrics.jobsCanceled.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never observed the disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for s.metrics.jobsActive.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("canceled job still counted active")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDrainRejectsNewFinishesInFlight: Drain turns /healthz 503 and
// refuses new jobs, while a grid already streaming runs to completion with
// the reference bytes.
func TestDrainRejectsNewFinishesInFlight(t *testing.T) {
	spec := gridSpec()
	want := referenceTable(t, spec, false)

	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(spec)
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	// Drain as soon as the job is accepted (start line received), then let
	// the stream finish.
	br := bufio.NewReader(resp.Body)
	startRaw, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	s.Drain()

	hz, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hzBody, _ := io.ReadAll(hz.Body)
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(hzBody), "draining") {
		t.Errorf("draining /healthz: status=%d body=%s", hz.StatusCode, hzBody)
	}
	rej, err := ts.Client().Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, rej.Body)
	rej.Body.Close()
	if rej.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining job submission: status = %d, want 503", rej.StatusCode)
	}

	// The in-flight stream is unaffected by the drain.
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	full := &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(bytes.NewReader(append(startRaw, rest...)))}
	js := parseStream(t, full)
	if !js.gotDone {
		t.Fatal("drained mid-grid: stream ended without done")
	}
	if js.done.Table != want {
		t.Error("table rendered during drain differs from reference")
	}
}

// TestJobValidation: malformed and invalid specs are rejected before any
// slot or workload is touched.
func TestJobValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get, err := ts.Client().Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, get.Body)
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /jobs status = %d, want 405", get.StatusCode)
	}

	for _, body := range []string{"not json", `{"sizes_bytes":[],"cycles_ns":[10]}`} {
		resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400", body, resp.StatusCode)
		}
	}
	// A body over the 1 MiB cap is refused before it is decoded in full.
	huge := `{"sizes_bytes":[` + strings.Repeat("1,", 1<<20) + `1],"cycles_ns":[10]}`
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("%d-byte body: status = %d, want 413", len(huge), resp.StatusCode)
	}
	if s.metrics.jobsTotal.Load() != 0 {
		t.Errorf("rejected specs counted as jobs: %d", s.metrics.jobsTotal.Load())
	}
}
