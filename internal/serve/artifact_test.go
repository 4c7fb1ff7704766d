package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlcache/internal/coord"
	"mlcache/internal/experiments"
	"mlcache/internal/store"
	"mlcache/internal/store/backend"
	"mlcache/internal/store/backend/fakes3"
	"mlcache/internal/trace"
)

// The serve layer as an artifact origin: a client publishes a trace to
// /artifacts/ and submits jobs that name it only by digest — no path on
// the server, no shared filesystem — and the streamed table is
// byte-identical to a local run over the same artifact.

func publishedSpec(t *testing.T, srvURL string, cl *http.Client) (coord.JobSpec, store.Digest) {
	t.Helper()
	arena, err := trace.Materialize(experiments.Options{Seed: 7, Refs: 30000}.Stream())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "workload.mlca")
	if err := trace.WriteArtifact(path, arena); err != nil {
		t.Fatal(err)
	}
	d, _, err := store.DigestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	crc, err := trace.ArtifactChecksum(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pusher := &backend.HTTP{Base: srvURL, HTTPClient: cl}
	if _, err := pusher.Put(context.Background(), d, f, -1); err != nil {
		t.Fatal(err)
	}
	spec := gridSpec()
	spec.Refs = 0
	spec.Seed = 0
	spec.ArtifactDigest = d.String()
	spec.ArtifactCRC = crc
	return spec, d
}

func TestJobByDigestMatchesLocalRun(t *testing.T) {
	s := newTestServer(t, Config{ArtifactDir: t.TempDir(), Parallelism: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	spec, d := publishedSpec(t, srv.URL, http.DefaultClient)

	// Reference: run the committed object directly (the store resolved the
	// digest to this path, so the bytes are identical by construction).
	refSpec := spec
	refSpec.ArtifactDigest = ""
	refSpec.ArtifactCRC = 0
	var err error
	if refSpec.TracePath, err = s.artifacts.Resolve(d); err != nil {
		t.Fatal(err)
	}
	want := referenceTable(t, refSpec, false)

	js := postJob(t, http.DefaultClient, srv.URL+"/jobs", spec)
	if js.status != http.StatusOK {
		t.Fatalf("digest job rejected: %d", js.status)
	}
	if !js.gotDone {
		t.Fatal("stream ended without done line")
	}
	if js.done.Table != want {
		t.Errorf("digest-job table differs from local run:\n--- got ---\n%s--- want ---\n%s", js.done.Table, want)
	}
	if !strings.HasPrefix(js.start.Workload, "cas|"+d.String()) {
		t.Errorf("workload key %q not content-addressed", js.start.Workload)
	}

	// A second digest job shares the cached arena.
	js2 := postJob(t, http.DefaultClient, srv.URL+"/jobs", spec)
	if !js2.start.ArenaHit {
		t.Error("second digest job missed the arena cache")
	}
}

func TestJobByUnpublishedDigestRejected(t *testing.T) {
	s := newTestServer(t, Config{ArtifactDir: t.TempDir()})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	spec := gridSpec()
	spec.Refs = 0
	spec.Seed = 0
	spec.ArtifactDigest = store.DigestBytes([]byte("never published")).String()
	js := postJob(t, http.DefaultClient, srv.URL+"/jobs", spec)
	if js.status != http.StatusNotFound {
		t.Fatalf("unpublished digest: got %d, want 404", js.status)
	}

	// A server with no store at all refuses digest jobs outright.
	s2 := newTestServer(t, Config{})
	srv2 := httptest.NewServer(s2.Handler())
	defer srv2.Close()
	js = postJob(t, http.DefaultClient, srv2.URL+"/jobs", spec)
	if js.status != http.StatusNotFound {
		t.Fatalf("storeless server: got %d, want 404", js.status)
	}
}

// TestJobByDigestRemoteOutage503 publishes an object to a tiered
// store's bucket and then fails every bucket GET: the job must be told
// the store is unavailable (503, Retry-After, the cause), not that the
// object is unpublished.
func TestJobByDigestRemoteOutage503(t *testing.T) {
	fake := fakes3.New(fakes3.Config{Bucket: "artifacts"})
	bucket := httptest.NewServer(fake)
	defer bucket.Close()
	s3, err := backend.NewS3(backend.S3Config{Endpoint: bucket.URL, Bucket: "artifacts", Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	local, err := store.OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("a published artifact")
	d := store.DigestBytes(data)
	fake.PutObject(backend.ObjectKey("mlca/", d), data)
	fake.SetFaults(fakes3.Faults{FailGets: 100})

	s := newTestServer(t, Config{Artifacts: backend.NewTiered(local, s3)})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	spec := gridSpec()
	spec.Refs = 0
	spec.Seed = 0
	spec.ArtifactDigest = d.String()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("bucket outage: got %d (%s), want 503", resp.StatusCode, msg)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if !strings.Contains(string(msg), "500 Internal Server Error") {
		t.Errorf("body %q does not carry the cause", msg)
	}
}

func TestArtifactEndpointsRequireTenantKey(t *testing.T) {
	tenants, err := ParseTenants([]TenantConfig{{Name: "acme", Key: "k-acme"}})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{ArtifactDir: t.TempDir(), Tenants: tenants})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	d := store.DigestBytes([]byte("x"))
	resp, err := http.Get(srv.URL + store.PathArtifacts + d.String())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("keyless artifact GET: %d, want 401", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodGet, srv.URL+store.PathArtifacts+d.String(), nil)
	req.Header.Set("X-API-Key", "k-acme")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("keyed artifact GET of absent object: %d, want 404", resp.StatusCode)
	}
}
