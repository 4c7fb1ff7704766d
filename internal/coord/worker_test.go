package coord

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mlcache/internal/experiments"
	"mlcache/internal/memsys"
	"mlcache/internal/sweep"
)

// TestWorkerPostRetriesTransientOnly: a worker's request stops at a
// status retrying cannot change (400) and retries one that can (503)
// until the coordinator answers.
func TestWorkerPostRetriesTransientOnly(t *testing.T) {
	for _, tc := range []struct {
		name     string
		failures int64 // statuses answered before a 200
		status   int
		want     int64 // requests sent
		ok       bool
	}{
		{"400 stops", 100, http.StatusBadRequest, 1, false},
		{"503 retried", 2, http.StatusServiceUnavailable, 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var requests atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if requests.Add(1) <= tc.failures {
					http.Error(w, "not now", tc.status)
					return
				}
				w.Write([]byte(`{"done": true}`))
			}))
			defer srv.Close()
			w := &Worker{ID: "w1", Coordinator: srv.URL}
			var resp LeaseResponse
			err := w.post(context.Background(), PathLease, LeaseRequest{Worker: "w1"}, &resp)
			if n := requests.Load(); n != tc.want {
				t.Fatalf("%d requests, want %d", n, tc.want)
			}
			switch {
			case tc.ok && (err != nil || !resp.Done):
				t.Fatalf("post: %v, response %+v; want the 200's answer", err, resp)
			case !tc.ok && (err == nil || !strings.Contains(err.Error(), "400")):
				t.Fatalf("post: %v, want the 400", err)
			}
		})
	}
}

// TestRunShardUploadsFailedPoint: a point whose Configure panics fails on
// every worker, so the worker uploads it with its error instead of handing
// the shard back, and the grid finishes like a local sweep: that point
// fails with the local run's error, every other point is merged once, and
// the table is the local run's, byte for byte.
func TestRunShardUploadsFailedPoint(t *testing.T) {
	spec := stateTestSpec()
	arena, closer, _, err := spec.MaterializeArena(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	runner := spec.RunnerFor(arena)
	pts := spec.Points()
	bad := pts[3]
	configure := runner.Configure
	runner.Configure = func(pt sweep.Point) memsys.Config {
		if pt == bad {
			panic("fault")
		}
		return configure(pt)
	}
	local, err := runner.RunContext(context.Background(), pts, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}

	c, err := New(Config{Job: spec, Shards: 1, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	merges := map[sweep.Point]int{} // written under the coordinator's lock
	type ran struct {
		results []sweep.Result
		err     error
	}
	done := make(chan ran, 1)
	go func() {
		results, err := c.RunContext(ctx, pts, sweep.Options{OnResult: func(r sweep.Result) { merges[r.Point]++ }})
		done <- ran{results, err}
	}()
	w := &Worker{ID: "w1", Coordinator: srv.URL, Logf: t.Logf}
	gridDone, err := w.runShard(ctx, runner, pts, leaseWhenStarted(t, c, "w1"), RegisterResponse{}, 0)
	if err != nil || !gridDone {
		t.Fatalf("runShard = %v, %v; want the grid done", gridDone, err)
	}
	got := <-done
	if got.err != nil {
		t.Fatalf("RunContext = %v, want nil", got.err)
	}
	for i, r := range got.results {
		switch {
		case r.Point == bad:
			if r.Err == nil || r.Err.Error() != local[i].Err.Error() {
				t.Errorf("failed point's error = %v, want %v", r.Err, local[i].Err)
			}
			if merges[r.Point] != 0 {
				t.Errorf("failed point reached OnResult %d times, want 0", merges[r.Point])
			}
		case r.Err != nil || merges[r.Point] != 1:
			t.Errorf("point %v: err %v, merged %d times; want merged once", r.Point, r.Err, merges[r.Point])
		}
	}
	var want, have bytes.Buffer
	if err := sweep.WriteTable(&want, local, experiments.CPUCycleNS, false); err != nil {
		t.Fatal(err)
	}
	if err := sweep.WriteTable(&have, got.results, experiments.CPUCycleNS, false); err != nil {
		t.Fatal(err)
	}
	if have.String() != want.String() || strings.Count(have.String(), "FAILED") != 1 {
		t.Errorf("merged table:\n%s\nwant the local run's, with one FAILED row:\n%s", have.String(), want.String())
	}
}
