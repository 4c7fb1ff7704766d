package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"mlcache/internal/checkpoint"
	"mlcache/internal/coord"
)

// poisonSpec is a distinct synthetic grid standing in for a spec that
// crashes the process; the tests inject its journal history directly
// instead of actually dying.
func poisonSpec() coord.JobSpec {
	s := gridSpec()
	s.Seed = 666
	return s
}

// craftJobs writes a jobs journal the way a killed server would have left
// it: one running record per entry, no terminal appends.
func craftJobs(t *testing.T, dir string, recs map[int64]jobRecord) {
	t.Helper()
	jobs, err := checkpoint.OpenSegmented(dir, "jobs", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer jobs.Close()
	for id, rec := range recs {
		if _, err := jobs.Append(jobKey(id), rec); err != nil {
			t.Fatal(err)
		}
	}
}

// loadJobRecord reads the last journaled record for one job key.
func loadJobRecord(t *testing.T, dir string, id int64) (jobRecord, bool) {
	t.Helper()
	set, err := checkpoint.LoadSegmented(dir, "jobs")
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := set.Records[jobKey(id)]
	if !ok {
		return jobRecord{}, false
	}
	var rec jobRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	return rec, true
}

// TestQuarantineAfterMaxAttempts: a job at the attempt limit is
// quarantined instead of resumed — journaled poisoned with a crash report
// — while an interrupted healthy job in the same journal resumes and
// finishes untouched.
func TestQuarantineAfterMaxAttempts(t *testing.T) {
	dir := t.TempDir()
	bad := poisonSpec()
	good := gridSpec()
	npts := len(good.Points())
	craftJobs(t, dir, map[int64]jobRecord{
		7: {Spec: bad, Status: statusRunning, Attempts: 3},
		8: {Spec: good, Status: statusRunning, Attempts: 1},
	})

	s := newTestServer(t, Config{StateDir: dir})
	if n := s.ResumeInterrupted(); n != 1 {
		t.Fatalf("ResumeInterrupted = %d, want 1 (the healthy job only)", n)
	}
	if got := s.metrics.jobsPoisoned.Load(); got != 1 {
		t.Fatalf("jobsPoisoned = %d, want 1", got)
	}
	waitFor(t, "healthy resume", func() bool { return s.metrics.jobsResumed.Load() == 1 })
	if got := s.metrics.pointsTotal.Load(); got != int64(npts) {
		t.Errorf("resume simulated %d points, want %d (poisoned job must not run)", got, npts)
	}

	// The crash report is journaled as the terminal state.
	rec, ok := loadJobRecord(t, dir, 7)
	if !ok {
		t.Fatal("no journaled record for the poisoned job")
	}
	if rec.Status != statusPoisoned {
		t.Fatalf("poisoned job status = %q, want %q", rec.Status, statusPoisoned)
	}
	if rec.Attempts != 3 || rec.SpecDigest == "" || rec.PoisonedAt == "" || rec.Error == "" {
		t.Errorf("incomplete crash report: %+v", rec)
	}

	// The healthy job's terminal record carries its incremented attempt.
	waitFor(t, "healthy terminal record", func() bool {
		rec, ok := loadJobRecord(t, dir, 8)
		return ok && rec.Status == statusDone
	})
	if rec, _ := loadJobRecord(t, dir, 8); rec.Attempts != 2 {
		t.Errorf("healthy job terminal attempts = %d, want 2", rec.Attempts)
	}

	// Resubmitting the quarantined spec is refused with 422 + the report.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(bad)
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("resubmission of poisoned spec = %d, want 422", resp.StatusCode)
	}
	var report struct {
		Status     string `json:"status"`
		SpecDigest string `json:"spec_digest"`
		Attempts   int    `json:"attempts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	if report.Status != statusPoisoned || report.Attempts != 3 || report.SpecDigest == "" {
		t.Errorf("422 body missing crash report: %+v", report)
	}
	if got := s.metrics.jobsRejectedPoisoned.Load(); got != 1 {
		t.Errorf("jobsRejectedPoisoned = %d, want 1", got)
	}

	// The healthy grid is still admissible and replays from cache.
	js := postJob(t, ts.Client(), ts.URL+"/jobs", good)
	if js.status != http.StatusOK || js.done.Cached != npts {
		t.Errorf("healthy grid after quarantine: status %d, cached %d/%d", js.status, js.done.Cached, npts)
	}
}

// TestQuarantineSurvivesRestart: the poisoned record outlives the process
// that wrote it — a fresh server over the same state dir loads the
// registry, never re-runs the job, and still refuses resubmissions.
func TestQuarantineSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	bad := poisonSpec()
	craftJobs(t, dir, map[int64]jobRecord{3: {Spec: bad, Status: statusRunning, Attempts: 5}})

	s1 := newTestServer(t, Config{StateDir: dir, MaxJobAttempts: 2})
	if n := s1.ResumeInterrupted(); n != 0 {
		t.Fatalf("first life resumed %d jobs, want 0", n)
	}
	s1.Close()

	s2 := newTestServer(t, Config{StateDir: dir, MaxJobAttempts: 2})
	defer s2.Close()
	if n := s2.ResumeInterrupted(); n != 0 {
		t.Fatalf("second life resumed %d jobs, want 0", n)
	}
	if got := s2.metrics.jobsPoisoned.Load(); got != 0 {
		t.Errorf("second life re-counted quarantine: jobsPoisoned = %d, want 0 (historical)", got)
	}
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	body, _ := json.Marshal(bad)
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("resubmission after restart = %d, want 422", resp.StatusCode)
	}
}

// TestQuarantineKeyedByDecodedSpec: a poisoned record whose journaled spec
// carries a field JobSpec no longer has (the retired "plan"), with a
// SpecDigest computed over those bytes, still quarantines the spec: a
// resubmission, which cannot carry the field, is refused with 422.
func TestQuarantineKeyedByDecodedSpec(t *testing.T) {
	dir := t.TempDir()
	bad := poisonSpec()
	var fields map[string]any
	raw, err := json.Marshal(bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	fields["plan"] = "full"
	if raw, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	jobs, err := checkpoint.OpenSegmented(dir, "jobs", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jobs.Append(jobKey(1), map[string]any{
		"spec":        json.RawMessage(raw),
		"status":      statusPoisoned,
		"attempts":    3,
		"spec_digest": hex.EncodeToString(sum[:]),
		"error":       "crashed the process on 3 consecutive attempts",
		"poisoned_at": "2026-01-01T00:00:00Z",
	}); err != nil {
		t.Fatal(err)
	}
	if err := jobs.Close(); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Config{StateDir: dir})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(bad)
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("resubmission of a spec quarantined with a legacy digest = %d, want 422", resp.StatusCode)
	}
}

// TestAttemptBeginJournaled: an HTTP-submitted job journals attempt 1
// before running (the attempt-begin record a crash would leave behind)
// and a terminal record with the same attempt count after.
func TestAttemptBeginJournaled(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{StateDir: dir})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	js := postJob(t, ts.Client(), ts.URL+"/jobs", gridSpec())
	if !js.gotDone {
		t.Fatal("job did not complete")
	}
	rec, ok := loadJobRecord(t, dir, js.start.Job)
	if !ok {
		t.Fatal("no journaled record for the job")
	}
	if rec.Status != statusDone || rec.Attempts != 1 {
		t.Errorf("terminal record = %+v, want done with attempts 1", rec)
	}
}
