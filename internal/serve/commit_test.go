package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mlcache/internal/checkpoint"
	"mlcache/internal/coord"
	"mlcache/internal/sweep"
)

// journaledCheck returns a function that fails the test unless the
// result line's point, under base, is in the state directory's results
// journal at the moment it is called.
func journaledCheck(t *testing.T, dir, base string) func(who string, rl resultLine) {
	return func(who string, rl resultLine) {
		t.Helper()
		pt := sweep.Point{L2SizeBytes: rl.L2KB * 1024, L2CycleNS: rl.CycleNS, L2Assoc: rl.Assoc}
		set, err := checkpoint.LoadSegmented(dir, "results")
		if err != nil {
			t.Error(err) // Fatal may not be called off the test goroutine
			return
		}
		if !set.Has(pointKey(base, pt)) {
			t.Errorf("%s point %d (%v, cached=%t) before its record was journaled", who, rl.Index, pt, rl.Cached)
		}
	}
}

// checkedWriter hands every response write to check before the write
// reaches the connection. An NDJSON job stream writes one line per Write.
type checkedWriter struct {
	http.ResponseWriter
	check func(p []byte)
}

func (w checkedWriter) Write(p []byte) (int, error) {
	w.check(p)
	return w.ResponseWriter.Write(p)
}

// Unwrap lets http.ResponseController reach the connection's flush and
// write deadline.
func (w checkedWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// readLines posts spec and hands each NDJSON line to line as it is read,
// until the done line.
func readLines(t *testing.T, ts *httptest.Server, spec coord.JobSpec, line func(raw []byte) (done bool)) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("POST /jobs: %s", resp.Status)
		return
	}
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	for {
		raw, err := br.ReadBytes('\n')
		if err != nil {
			t.Errorf("stream ended without a done line: %v", err)
			return
		}
		if line(raw) {
			return
		}
	}
}

// TestStreamedPointsAreDurable holds the commit protocol to its promise:
// a client reading a cold job's stream line by line finds each point's
// record already in the results journal, and a second job on the same
// grid, submitted while the first still runs, is served from the result
// cache only points already journaled. The same check also runs on the
// server side as each line is written, before any client can read it,
// so a line written ahead of its journal record fails however fast the
// record follows.
func TestStreamedPointsAreDurable(t *testing.T) {
	dir := t.TempDir()
	spec := gridSpec()
	spec.SizesBytes = []int64{4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10}
	spec.CyclesNS = []int64{10, 20, 30, 40}
	spec.Refs = 100000
	npts := len(spec.Points())
	want := referenceTable(t, spec, false)
	wk, err := WorkloadKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	check := journaledCheck(t, dir, resultKeyBase(wk, spec))

	s := newTestServer(t, Config{StateDir: dir, Parallelism: 2})
	defer s.Close()
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(checkedWriter{w, func(p []byte) {
			var rl resultLine
			if json.Unmarshal(p, &rl) == nil && rl.Run != nil {
				check("server wrote", rl)
			}
		}}, r)
	}))
	defer ts.Close()

	var (
		second     sync.WaitGroup
		secondSeen int
		results    int
		done       doneLine
	)
	readLines(t, ts, spec, func(raw []byte) bool {
		var rl resultLine
		switch {
		case bytes.Contains(raw, []byte(`"done":true`)):
			if err := json.Unmarshal(raw, &done); err != nil {
				t.Fatalf("done line: %v", err)
			}
			return true
		case json.Unmarshal(raw, &rl) != nil || rl.Run == nil: // the start line
			return false
		}
		check("first job streamed", rl)
		if results++; results != 1 {
			return false
		}
		// Mid-run: a second job on the same grid probes the cache.
		second.Add(1)
		go func() {
			defer second.Done()
			readLines(t, ts, spec, func(raw []byte) bool {
				var rl resultLine
				if json.Unmarshal(raw, &rl) == nil && rl.Cached {
					secondSeen++
					check("second job streamed", rl)
				}
				return bytes.Contains(raw, []byte(`"done":true`))
			})
		}()
		return false
	})
	second.Wait()
	if results != npts || done.Table != want {
		t.Errorf("first job streamed %d of %d points; table matches reference: %t", results, npts, done.Table == want)
	}
	if secondSeen == 0 {
		t.Error("the second job was served no cached point, though the first had streamed one")
	}
	t.Logf("second job: %d of %d points from the cache", secondSeen, npts)
}

// metricValue reads one unlabelled integer sample from the server's
// /metrics.
func metricValue(t *testing.T, ts *httptest.Server, name string) int64 {
	t.Helper()
	n, err := strconv.ParseInt(metricSample(t, ts, name), 10, 64)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return n
}

// metricSample reads the value of one unlabelled sample from the
// server's /metrics.
func metricSample(t *testing.T, ts *httptest.Server, name string) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("/metrics has no sample %s", name)
	return ""
}

// TestResultBatchesOnMetrics: a journaled cold job commits its points in
// at least one and at most one batch per point, each batch counted on
// /metrics; a server without a state directory journals nothing and
// counts no batch.
func TestResultBatchesOnMetrics(t *testing.T) {
	spec := gridSpec()
	npts := int64(len(spec.Points()))
	for _, durable := range []bool{true, false} {
		t.Run(fmt.Sprintf("durable=%t", durable), func(t *testing.T) {
			cfg := Config{}
			if durable {
				cfg.StateDir = t.TempDir()
			}
			s := newTestServer(t, cfg)
			defer s.Close()
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			if js := postJob(t, ts.Client(), ts.URL+"/jobs", spec); !js.gotDone {
				t.Fatal("job never finished")
			}
			points := metricValue(t, ts, "mlcserve_points_total")
			commits := metricValue(t, ts, "mlcserve_results_journal_commits_total")
			if points != npts {
				t.Fatalf("mlcserve_points_total = %d, want %d", points, npts)
			}
			if durable && (commits < 1 || commits > points) {
				t.Errorf("mlcserve_results_journal_commits_total = %d, want 1..%d", commits, points)
			}
			if !durable && commits != 0 {
				t.Errorf("mlcserve_results_journal_commits_total = %d without a state dir, want 0", commits)
			}
		})
	}
}

// TestRestartAfterCompactionsReplaysEveryPoint: with a results journal
// that rotates after every batch, and so compacts after every other one,
// a restart still replays every point the first life simulated, because
// compaction runs once the batch is in the result cache and so keeps it.
func TestRestartAfterCompactionsReplaysEveryPoint(t *testing.T) {
	dir := t.TempDir()
	spec := gridSpec()
	spec.SizesBytes = []int64{4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10}
	spec.CyclesNS = []int64{10, 20, 30, 40}
	npts := int64(len(spec.Points()))

	s1 := newTestServer(t, Config{StateDir: dir, JournalMaxBytes: 1})
	ts1 := httptest.NewServer(s1.Handler())
	if js := postJob(t, ts1.Client(), ts1.URL+"/jobs", spec); !js.gotDone {
		t.Fatal("job never finished")
	}
	ts1.Close()
	commits := s1.metrics.resultCommits.Load()
	s1.Close()
	if commits < 2 {
		t.Fatalf("%d batch; a compaction needs 2", commits)
	}

	s2 := newTestServer(t, Config{StateDir: dir})
	defer s2.Close()
	if got := s2.metrics.pointsReplayed.Load(); got != npts {
		t.Errorf("restart replayed %d of %d points after %d batches", got, npts, commits)
	}
}
