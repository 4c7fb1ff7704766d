package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"testing"

	"mlcache/internal/checkpoint"
	"mlcache/internal/coord"
	"mlcache/internal/trace"
)

// gridSpecHierarchyBytes is the tag arrays of gridSpec's largest point,
// fully touched: two direct-mapped 2 KiB L1s of 16-byte blocks (128
// 32-byte lines and a one-page directory of 24 bytes: 4120 bytes apiece)
// and a direct-mapped 64 KiB L2 of 32-byte blocks (2048 lines, one page
// too: 65560 bytes).
const gridSpecHierarchyBytes = 2*4120 + 65560

// TestEstimateJobSynthetic: a synthetic spec prices at refs×16 bytes plus
// one hierarchy per worker, and at one trace pass plus a sixteenth of a
// pass per replayed point; invariant checking sends every point to full
// simulation, so it prices at points×refs.
func TestEstimateJobSynthetic(t *testing.T) {
	spec := gridSpec() // 2×2 grid, 30000 refs
	est, err := EstimateJob(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(30000*refBytes + 2*gridSpecHierarchyBytes); est.Bytes != want {
		t.Errorf("Bytes = %d, want %d", est.Bytes, want)
	}
	if est.Points != 4 || est.Refs != 30000 {
		t.Errorf("Points/Refs = %d/%d, want 4/30000", est.Points, est.Refs)
	}
	if want := int64(30000 + 4*30000/onepassReplayShare); est.Cost != want {
		t.Errorf("Cost = %d, want %d", est.Cost, want)
	}

	spec.CheckInvariants = true
	checked, err := EstimateJob(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if checked.Cost != 4*30000 {
		t.Errorf("check_invariants Cost = %d, want %d", checked.Cost, 4*30000)
	}
}

// TestEstimateJobArtifact: artifact-backed specs are priced from the
// 32-byte header's record count, capped by the spec's own Refs.
func TestEstimateJobArtifact(t *testing.T) {
	refs := make([]trace.Ref, 500)
	for i := range refs {
		refs[i] = trace.Ref{Addr: uint64(i * 64), Kind: trace.Load}
	}
	path := filepath.Join(t.TempDir(), "t.mlca")
	if err := trace.WriteArtifact(path, trace.NewArena(refs)); err != nil {
		t.Fatal(err)
	}
	spec := gridSpec()
	spec.TracePath = path
	spec.Refs = 0 // whole file
	est, err := EstimateJob(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(500*refBytes + 2*gridSpecHierarchyBytes); est.Refs != 500 || est.Bytes != want {
		t.Errorf("whole-file estimate Refs/Bytes = %d/%d, want 500/%d", est.Refs, est.Bytes, want)
	}
	spec.Refs = 100 // spec cap below the file's count wins
	if est, _ := EstimateJob(spec, 2); est.Refs != 100 {
		t.Errorf("capped estimate Refs = %d, want 100", est.Refs)
	}
	spec.Refs = 1 << 20 // cap above the file clamps to the file
	if est, _ := EstimateJob(spec, 2); est.Refs != 500 {
		t.Errorf("over-cap estimate Refs = %d, want 500", est.Refs)
	}
}

// TestCostModelCheck: each bound trips with its own machine-readable
// reason, and a job bigger than the whole in-flight budget is a permanent
// (bytes) rejection rather than a transient one.
func TestCostModelCheck(t *testing.T) {
	est := JobEstimate{Bytes: 1000, Cost: 5000}
	cases := []struct {
		name       string
		m          CostModel
		wantReason string // "" = admitted
	}{
		{"unlimited", CostModel{}, ""},
		{"under bounds", CostModel{MaxJobBytes: 2000, MaxJobCost: 10000}, ""},
		{"over bytes", CostModel{MaxJobBytes: 999}, "bytes"},
		{"over cost", CostModel{MaxJobCost: 4999}, "cost"},
		{"over whole inflight budget", CostModel{MaxInflightBytes: 999}, "bytes"},
	}
	for _, tc := range cases {
		ce := tc.m.check(est)
		switch {
		case tc.wantReason == "" && ce != nil:
			t.Errorf("%s: rejected: %v", tc.name, ce)
		case tc.wantReason != "" && (ce == nil || ce.Reason != tc.wantReason):
			t.Errorf("%s: got %+v, want reason %q", tc.name, ce, tc.wantReason)
		}
	}
}

// TestAdmissionRejectsOversized: an over-budget spec is refused with 413
// and a machine-readable reason before any journal append or arena
// materialization — the acceptance-criteria ordering.
func TestAdmissionRejectsOversized(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{
		StateDir: dir,
		Cost:     CostModel{MaxJobBytes: 1000}, // gridSpec estimates over 480000
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(gridSpec())
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec = %d, want 413", resp.StatusCode)
	}
	var reason struct {
		Reason    string `json:"reason"`
		Estimated int64  `json:"estimated"`
		Limit     int64  `json:"limit"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reason); err != nil {
		t.Fatal(err)
	}
	// One hierarchy per worker: GOMAXPROCS of them, at most one per point.
	want := int64(30000*refBytes + min(runtime.GOMAXPROCS(0), 4)*gridSpecHierarchyBytes)
	if reason.Reason != "bytes" || reason.Estimated != want || reason.Limit != 1000 {
		t.Errorf("413 body = %+v", reason)
	}

	// Nothing was journaled and nothing was materialized.
	set, err := checkpoint.LoadSegmented(dir, "jobs")
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Records) != 0 {
		t.Errorf("rejected job left %d journal records", len(set.Records))
	}
	if st := s.arenas.Stats(); st.Misses != 0 || st.Entries != 0 {
		t.Errorf("rejected job touched the arena cache: %+v", st)
	}
	if got := s.metrics.jobsRejectedCost.Load(); got != 1 {
		t.Errorf("jobsRejectedCost = %d, want 1", got)
	}
	if got := s.metrics.jobsTotal.Load(); got != 0 {
		t.Errorf("jobsTotal = %d, want 0 (rejection is not acceptance)", got)
	}
}

// TestInflightGate: the aggregate byte budget answers transient
// overcommit with 503 + Retry-After and admits the same job once the
// reservation frees.
func TestInflightGate(t *testing.T) {
	spec := gridSpec()
	est, err := EstimateJob(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{
		Cost: CostModel{MaxInflightBytes: est.Bytes + 1},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Fill the budget by hand — deterministic stand-in for a running job.
	if !s.gate.reserve(est.Bytes) {
		t.Fatal("initial reservation failed")
	}
	body, _ := json.Marshal(spec)
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overcommit = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if got := s.metrics.jobsRejectedLoad.Load(); got != 1 {
		t.Errorf("jobsRejectedLoad = %d, want 1", got)
	}

	s.gate.release(est.Bytes)
	js := postJob(t, ts.Client(), ts.URL+"/jobs", spec)
	if js.status != http.StatusOK || !js.gotDone {
		t.Errorf("job after release: status %d, done %t", js.status, js.gotDone)
	}
	if got := s.metrics.inflightBytes.Load(); got != 0 {
		t.Errorf("inflight gauge = %d after completion, want 0", got)
	}
}

// TestEstimateJobPricesTheHierarchies: a job's tag arrays count as if a
// trace touched every set, so a one-point job with a 16 GiB direct-mapped
// L2 (2^29 32-byte lines in 2^25 pages of 16 sets, each page a 24-byte
// directory entry: 16.75 GiB) is priced at them, once, however many
// workers there are; a Fig 4-1-sized grid stays small.
func TestEstimateJobPricesTheHierarchies(t *testing.T) {
	spec := gridSpec()
	spec.SizesBytes, spec.CyclesNS, spec.Refs = []int64{16 << 30}, []int64{10}, 2000
	est, err := EstimateJob(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(2000*refBytes + 2*4120 + 1<<34 + 24<<25); est.Bytes != want {
		t.Errorf("16 GiB L2: Bytes = %d, want %d", est.Bytes, want)
	}

	fig41 := gridSpec()
	fig41.SizesBytes = []int64{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}
	fig41.Refs = 200000
	est, err = EstimateJob(fig41, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 4 MiB of 32-byte blocks: 131072 lines of 32 bytes and 8192 pages,
	// per worker.
	if want := int64(200000*refBytes + 4*(2*4120+131072*32+8192*24)); est.Bytes != want {
		t.Errorf("Fig 4-1 grid: Bytes = %d, want %d", est.Bytes, want)
	}
}

// TestAdmissionRejectsWhatNoGateFits: under the default in-flight gate
// (twice the arena budget) a job larger than the whole gate is refused
// with the permanent 413, not a 503 a client would retry forever, and
// before anything is journaled. A long trace against a 1 MiB arena
// budget is such a job, and so is one 16 GiB L2 under the default 1 GiB.
func TestAdmissionRejectsWhatNoGateFits(t *testing.T) {
	longTrace := gridSpec()
	longTrace.Refs = 200000 // 3.2 MB of arena against a 2 MiB gate
	hugeL2 := gridSpec()
	hugeL2.SizesBytes, hugeL2.CyclesNS, hugeL2.Refs = []int64{16 << 30}, []int64{10}, 2000
	for _, tc := range []struct {
		name        string
		spec        coord.JobSpec
		arenaBudget int64
		gate        int64
	}{
		{"long trace", longTrace, 1 << 20, 2 << 20},
		{"16 GiB L2", hugeL2, 0, 2 << 30},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := newTestServer(t, Config{StateDir: dir, ArenaBudgetBytes: tc.arenaBudget})
			defer s.Close()
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			body, _ := json.Marshal(tc.spec)
			resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("job larger than the gate = %d, want 413", resp.StatusCode)
			}
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				t.Errorf("permanent rejection carries Retry-After %q", ra)
			}
			var reason struct {
				Reason string `json:"reason"`
				Limit  int64  `json:"limit"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&reason); err != nil {
				t.Fatal(err)
			}
			if reason.Reason != "bytes" || reason.Limit != tc.gate {
				t.Errorf("413 body = %+v, want bytes over the %d-byte gate", reason, tc.gate)
			}
			set, err := checkpoint.LoadSegmented(dir, "jobs")
			if err != nil {
				t.Fatal(err)
			}
			if len(set.Records) != 0 {
				t.Errorf("rejected job left %d journal records", len(set.Records))
			}
		})
	}
}
