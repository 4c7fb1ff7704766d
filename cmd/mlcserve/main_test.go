package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mlcache/internal/serve"
	"mlcache/internal/store/backend"
)

func goodOptions() options {
	return options{jobs: 4, queue: 16, resultPoints: 65536, drainTimeout: 10 * time.Minute,
		arenaBudget: 1024, journalMaxMB: 64, maxAttempts: 3}
}

func TestValidateRejectsBadFlagCombinations(t *testing.T) {
	// A regular file where a directory is needed defeats MkdirAll even for
	// root, unlike permission bits.
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	badTenants := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(badTenants, []byte(`{"tenants": [{"name": "a"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		mutate  func(*options)
		wantErr string
	}{
		{"zero jobs", func(o *options) { o.jobs = 0 }, "-jobs"},
		{"negative jobs", func(o *options) { o.jobs = -1 }, "-jobs"},
		{"zero queue", func(o *options) { o.queue = 0 }, "-queue"},
		{"negative par", func(o *options) { o.par = -2 }, "-par"},
		{"zero result cache", func(o *options) { o.resultPoints = 0 }, "-result-cache-points"},
		{"negative result cache", func(o *options) { o.resultPoints = -3 }, "-result-cache-points"},
		{"negative drain timeout", func(o *options) { o.drainTimeout = -time.Second }, "-drain-timeout"},
		{"zero arena budget", func(o *options) { o.arenaBudget = 0 }, "-arena-budget-mb"},
		{"negative rate", func(o *options) { o.anonRate = -1 }, "-tenant-rate"},
		{"negative burst", func(o *options) { o.anonBurst = -1 }, "-tenant-burst"},
		{"zero attempts", func(o *options) { o.maxAttempts = 0 }, "-max-job-attempts"},
		{"negative job bytes", func(o *options) { o.maxJobBytes = -1 }, "-max-job-bytes"},
		{"negative job cost", func(o *options) { o.maxJobCost = -1 }, "-max-job-cost"},
		{"negative deadline cap", func(o *options) { o.maxDeadline = -time.Second }, "-max-job-deadline"},
		{"garbage fault point", func(o *options) { o.faultPoint = "explode" }, "-fault-point"},
		{
			"zero journal size with state dir",
			func(o *options) { o.stateDir = t.TempDir(); o.journalMaxMB = 0 },
			"-journal-max-mb",
		},
		{
			"unwritable state dir",
			func(o *options) { o.stateDir = filepath.Join(blocker, "state") },
			"-state-dir",
		},
		{
			"missing tenants config",
			func(o *options) {
				o.tenantsPath = filepath.Join(t.TempDir(), "nope.json")
				o.sec.Insecure = true
			},
			"no such file",
		},
		{
			"invalid tenants config",
			func(o *options) { o.tenantsPath = badTenants; o.sec.Insecure = true },
			"-tenants-config",
		},
		{
			"tenant keys over plaintext",
			func(o *options) { o.tenantsPath = badTenants },
			"plaintext",
		},
		{
			"cert without key",
			func(o *options) { o.sec.CertFile = "server.pem" },
			"both a certificate and a key",
		},
		{
			"negative gc interval",
			func(o *options) { o.gcInterval = -time.Minute },
			"-store-gc-interval",
		},
		{
			"negative gc grace",
			func(o *options) { o.gcGrace = -time.Minute },
			"-store-gc-grace",
		},
		{
			"gc interval without a store",
			func(o *options) { o.gcInterval = time.Minute },
			"-store-gc-interval",
		},
	}
	for _, tc := range cases {
		o := goodOptions()
		tc.mutate(&o)
		_, err := validate(o)
		if err == nil {
			t.Errorf("%s: validate accepted %+v", tc.name, o)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestValidateAcceptsWorkingConfigs(t *testing.T) {
	// Plain in-memory server.
	if _, err := validate(goodOptions()); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}

	// Durable server: the state dir is created on demand.
	o := goodOptions()
	o.stateDir = filepath.Join(t.TempDir(), "nested", "state")
	if _, err := validate(o); err != nil {
		t.Fatalf("writable -state-dir rejected: %v", err)
	}
	if fi, err := os.Stat(o.stateDir); err != nil || !fi.IsDir() {
		t.Fatalf("validate did not create %s: %v", o.stateDir, err)
	}

	// Tenant table round-trips through LoadTenants.
	path := filepath.Join(t.TempDir(), "tenants.json")
	cfg := `{"tenants": [
		{"name": "alice", "key": "ak_alice", "weight": 2, "rate_per_sec": 1, "burst": 4},
		{"name": "bob", "key": "ak_bob"}
	]}`
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	o = goodOptions()
	o.tenantsPath = path
	o.sec.Insecure = true
	tenants, err := validate(o)
	if err != nil {
		t.Fatalf("valid tenants config rejected: %v", err)
	}
	if tenants == nil {
		t.Fatal("validate returned a nil tenant table for a valid config")
	}

	// Artifact GC over either kind of store.
	o = goodOptions()
	o.gcInterval = time.Minute
	o.artifactDir = t.TempDir()
	if _, err := validate(o); err != nil {
		t.Fatalf("-store-gc-interval with -artifact-store rejected: %v", err)
	}
	o.artifactDir = ""
	o.s3.Endpoint = "https://s3.example.com"
	if _, err := validate(o); err != nil {
		t.Fatalf("-store-gc-interval with -s3-endpoint rejected: %v", err)
	}
}

func TestBuildArtifactsBackends(t *testing.T) {
	// No -s3-endpoint: no backend is built, even beside -artifact-store
	// (serve.New opens that directory itself).
	o := goodOptions()
	o.artifactDir = t.TempDir()
	if b, _, err := buildArtifacts(o); err != nil || b != nil {
		t.Fatalf("no endpoint: %v, %v", b, err)
	}

	// NewS3's checks reach the binary unchanged.
	o = goodOptions()
	o.s3 = backend.S3Config{Endpoint: "https://s3.example.com", Bucket: "traces", AccessKey: "AKTEST"}
	if _, _, err := buildArtifacts(o); err == nil || !strings.Contains(err.Error(), "set together") {
		t.Fatalf("access key without secret: %v", err)
	}
	// Credentials over plaintext HTTP are refused before any request...
	o.s3 = backend.S3Config{Endpoint: "http://s3.example.com", Bucket: "traces", AccessKey: "AKTEST", SecretKey: "sekrit"}
	if _, _, err := buildArtifacts(o); err == nil || !strings.Contains(err.Error(), "plaintext") {
		t.Fatalf("plaintext credentials accepted: %v", err)
	}
	// ... unless -insecure says the operator knows (tests, localhost).
	o.s3.Insecure = true

	// The endpoint alone builds the bucket store, under a local tier that
	// is -artifact-store, else -state-dir/artifact-cache, else a temp dir.
	t.Setenv("TMPDIR", t.TempDir())
	tier := t.TempDir()
	for _, tc := range []struct {
		name, artifactDir, stateDir, wantTier string
	}{
		{"temp dir", "", "", "mlcserve-artifacts-"},
		{"state dir", "", t.TempDir(), "artifact-cache"},
		{"artifact store", tier, t.TempDir(), tier},
	} {
		o.artifactDir, o.stateDir = tc.artifactDir, tc.stateDir
		b, desc, err := buildArtifacts(o)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, ok := b.(*backend.Tiered); !ok {
			t.Errorf("%s: backend is %T, want *backend.Tiered", tc.name, b)
		}
		if !strings.Contains(desc, "s3.example.com/traces") || !strings.Contains(desc, tc.wantTier) {
			t.Errorf("%s: description %q does not name the bucket and %s", tc.name, desc, tc.wantTier)
		}
	}
}

// TestServeConfigFromOptions: the server runs with the values validate
// checked. Every field of serve.Config that a flag sets comes from
// options, MiB flags become bytes, and a zero -stream-write-timeout (the
// flag's "disabled") becomes the Config's negative "disabled".
func TestServeConfigFromOptions(t *testing.T) {
	o := options{
		jobs: 3, queue: 7, par: 2, resultPoints: 99, arenaBudget: 5,
		stateDir: "/state", artifactDir: "/art", journalMaxMB: 6,
		anonRate: 1.5, anonBurst: 4, maxAttempts: 8, maxJobBytes: 1000,
		maxJobCost: 2000, maxInflight: -1, maxDeadline: time.Minute,
		streamWrite: 30 * time.Second, faultPoint: "runjob:seed=7",
	}
	tenants := &serve.Tenants{}
	var artifacts backend.Store = backend.NewFS(nil)
	want := serve.Config{
		MaxJobs: 3, MaxQueue: 7, Parallelism: 2,
		ArenaBudgetBytes: 5 << 20, ResultCachePoints: 99,
		StateDir: "/state", ArtifactDir: "/art", Artifacts: artifacts,
		JournalMaxBytes: 6 << 20, Tenants: tenants,
		AnonRatePerSec: 1.5, AnonBurst: 4, MaxJobAttempts: 8,
		Cost:           serve.CostModel{MaxJobBytes: 1000, MaxJobCost: 2000, MaxInflightBytes: -1},
		MaxJobDeadline: time.Minute, StreamWriteTimeout: 30 * time.Second,
		FaultPoint: "runjob:seed=7",
	}
	if got := serveConfig(o, tenants, artifacts); !reflect.DeepEqual(got, want) {
		t.Errorf("serveConfig:\n got %+v\nwant %+v", got, want)
	}
	o.streamWrite = 0
	if got := serveConfig(o, tenants, artifacts).StreamWriteTimeout; got >= 0 {
		t.Errorf("-stream-write-timeout 0 gave StreamWriteTimeout %v, want negative (disabled)", got)
	}
}
