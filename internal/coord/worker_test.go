package coord

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
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
