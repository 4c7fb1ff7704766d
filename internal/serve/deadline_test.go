package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mlcache/internal/coord"
)

// slowSpec is a grid heavy enough that a 1-second deadline reliably fires
// mid-simulation.
func slowSpec() coord.JobSpec {
	spec := gridSpec()
	spec.SizesBytes = []int64{4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10}
	spec.CyclesNS = []int64{10, 20, 30, 40}
	spec.Refs = 2_000_000
	return spec
}

// TestJobDeadlineCancelsCleanly: a job whose own deadline fires is
// canceled at the next batch boundary, streams a structured final error,
// journals failed(deadline), frees its run slot, and leaves the server
// fully serviceable.
func TestJobDeadlineCancelsCleanly(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{StateDir: dir})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := slowSpec()
	spec.DeadlineSec = 1
	// Invariant checking sends every point to full simulation, which keeps
	// the job well past its deadline; the planner alone can finish it in
	// time.
	spec.CheckInvariants = true
	js := postJob(t, ts.Client(), ts.URL+"/jobs", spec)
	if js.status != http.StatusOK {
		t.Fatalf("deadline job status = %d, want 200 (accepted, then bounded)", js.status)
	}
	if !js.gotDone {
		t.Fatal("stream ended without a final record")
	}
	if !strings.Contains(js.done.Error, "deadline") {
		t.Errorf("final record error = %q, want a deadline reason", js.done.Error)
	}
	if js.done.Table != "" {
		t.Error("deadline-exceeded job rendered a table")
	}
	if got := s.metrics.jobsDeadline.Load(); got != 1 {
		t.Errorf("jobsDeadline = %d, want 1", got)
	}
	if got := s.metrics.jobsCanceled.Load(); got != 0 {
		t.Errorf("jobsCanceled = %d, want 0 (a deadline is not a disconnect)", got)
	}
	waitFor(t, "slot release", func() bool { return s.metrics.jobsActive.Load() == 0 })

	// Terminal journal state: failed, with the deadline as the reason.
	rec, ok := loadJobRecord(t, dir, js.start.Job)
	if !ok {
		t.Fatal("no journaled record for the deadline job")
	}
	if rec.Status != statusFailed || !strings.Contains(rec.Error, "deadline") {
		t.Errorf("journal record = %+v, want failed(deadline)", rec)
	}

	// The slot is genuinely free: an undeadlined small grid completes.
	if js := postJob(t, ts.Client(), ts.URL+"/jobs", gridSpec()); !js.gotDone {
		t.Error("server wedged after a deadline-exceeded job")
	}
}

// TestDeadlineCapRejected: a spec asking for more deadline than the
// server allows is refused up front with a machine-readable 400.
func TestDeadlineCapRejected(t *testing.T) {
	s := newTestServer(t, Config{MaxJobDeadline: 5 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := gridSpec()
	spec.DeadlineSec = 10
	body, _ := json.Marshal(spec)
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-cap deadline = %d, want 400", resp.StatusCode)
	}
	var reason struct {
		MaxDeadlineSec int64 `json:"max_deadline_sec"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reason); err != nil {
		t.Fatal(err)
	}
	if reason.MaxDeadlineSec != 5 {
		t.Errorf("400 body max_deadline_sec = %d, want 5", reason.MaxDeadlineSec)
	}

	// At or under the cap is admitted.
	spec.DeadlineSec = 5
	if js := postJob(t, ts.Client(), ts.URL+"/jobs", spec); !js.gotDone {
		t.Error("at-cap deadline rejected")
	}
}
