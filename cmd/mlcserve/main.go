// Command mlcserve runs the sweep engine as a long-running HTTP service:
// clients POST sweep-grid jobs (the same JSON job spec the distributed
// coordinator uses) to /jobs and stream per-point results back as NDJSON
// (or SSE with Accept: text/event-stream), ending with a rendered table
// byte-identical to `sweep` CLI output for the same grid. One resident
// process amortizes workload decoding (a shared refcounted arena cache),
// hierarchy allocation (a geometry-keyed pool), and repeated grids (a
// per-point result cache) across every client.
//
// With -state-dir the service is durable: every completed point and every
// accepted job is journaled (CRC'd segment-rotated JSONL) before it is
// streamed, a restarted process replays finished points from disk and
// finishes interrupted grids in the background — even `kill -9` mid-grid
// recomputes zero points. With -tenants-config the service is
// multi-tenant: /jobs requires an API key, each tenant gets token-bucket
// admission, a weighted share of the run slots, and labeled /metrics.
//
// With -artifact-store the service is also a content-addressed trace
// origin: clients PUT trace artifacts to /artifacts/sha256:<hex> and
// submit jobs that name the workload by digest alone — no path on the
// server, no shared filesystem. With -s3-endpoint the store is an
// S3-compatible bucket under a local tier: -artifact-store if given,
// else -state-dir/artifact-cache, else a temp dir. Because API keys are
// bearer secrets, -tenants-config over plaintext HTTP is refused unless
// -insecure; configure -tls-cert/-tls-key for production.
//
// Usage:
//
//	mlcserve -addr :9292 -state-dir /var/lib/mlcserve
//	mlcserve -addr :9292 -state-dir /var/lib/mlcserve -s3-endpoint https://s3:9000 -s3-bucket traces
//	curl -sN -X POST --data-binary @job.json 'localhost:9292/jobs?csv=1'
//	curl -s localhost:9292/metrics
//
// SIGINT/SIGTERM drain gracefully: /healthz flips to 503, new jobs are
// refused, and in-flight grids finish streaming before the process exits
// (bounded by -drain-timeout).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"mlcache/internal/prof"
	"mlcache/internal/serve"
	"mlcache/internal/store"
	"mlcache/internal/store/backend"
)

// options collects every flag value so validation is testable apart from
// flag parsing and process exit.
type options struct {
	jobs          int
	queue         int
	arenaBudget   int64
	stateDir      string
	artifactDir   string
	journalMaxMB  int64
	tenantsPath   string
	anonRate      float64
	anonBurst     int
	maxAttempts   int
	maxJobBytes   int64
	maxJobCost    int64
	maxInflight   int64
	maxDeadline   time.Duration
	streamTimeout time.Duration
	faultPoint    string
	sec           store.Security
	s3            backend.S3Config
	gcInterval    time.Duration
	gcGrace       time.Duration
}

// validate rejects unusable flag combinations up front — an unwritable
// state dir, a zero quota, a malformed tenants table — so the server
// fails at startup with a clear message instead of panicking mid-job. It
// returns the parsed tenants table (nil when -tenants-config is unset).
func validate(o options) (*serve.Tenants, error) {
	if o.jobs <= 0 {
		return nil, fmt.Errorf("-jobs must be positive, got %d", o.jobs)
	}
	if o.queue <= 0 {
		return nil, fmt.Errorf("-queue must be positive, got %d", o.queue)
	}
	if o.arenaBudget <= 0 {
		return nil, fmt.Errorf("-arena-budget-mb must be positive, got %d", o.arenaBudget)
	}
	if o.anonRate < 0 {
		return nil, fmt.Errorf("-tenant-rate must be non-negative, got %g", o.anonRate)
	}
	if o.anonBurst < 0 {
		return nil, fmt.Errorf("-tenant-burst must be non-negative, got %d", o.anonBurst)
	}
	if o.maxAttempts <= 0 {
		return nil, fmt.Errorf("-max-job-attempts must be positive, got %d", o.maxAttempts)
	}
	if o.maxJobBytes < 0 {
		return nil, fmt.Errorf("-max-job-bytes must be non-negative, got %d", o.maxJobBytes)
	}
	if o.maxJobCost < 0 {
		return nil, fmt.Errorf("-max-job-cost must be non-negative, got %d", o.maxJobCost)
	}
	if o.maxDeadline < 0 {
		return nil, fmt.Errorf("-max-job-deadline must be non-negative, got %v", o.maxDeadline)
	}
	if _, err := serve.ParseFaultPoint(o.faultPoint); err != nil {
		return nil, fmt.Errorf("-fault-point: %v", err)
	}
	if o.stateDir != "" {
		if o.journalMaxMB <= 0 {
			return nil, fmt.Errorf("-journal-max-mb must be positive, got %d", o.journalMaxMB)
		}
		if err := os.MkdirAll(o.stateDir, 0o755); err != nil {
			return nil, fmt.Errorf("-state-dir %s: %v", o.stateDir, err)
		}
		probe := filepath.Join(o.stateDir, ".writable-probe")
		if err := os.WriteFile(probe, nil, 0o644); err != nil {
			return nil, fmt.Errorf("-state-dir %s is not writable: %v", o.stateDir, err)
		}
		os.Remove(probe)
	}
	if o.gcInterval < 0 {
		return nil, fmt.Errorf("-store-gc-interval must be non-negative, got %v", o.gcInterval)
	}
	if o.gcInterval > 0 && o.artifactDir == "" && o.s3.Endpoint == "" {
		return nil, fmt.Errorf("-store-gc-interval needs an artifact store: -artifact-store or -s3-endpoint")
	}
	if o.gcGrace < 0 {
		return nil, fmt.Errorf("-store-gc-grace must be non-negative, got %v", o.gcGrace)
	}
	if err := o.sec.CheckServer(); err != nil {
		return nil, err
	}
	if o.tenantsPath == "" {
		return nil, nil
	}
	// API keys are bearer secrets exactly like the store token: accepting
	// them over plaintext hands them to the network.
	if !o.sec.TLSServer() && !o.sec.Insecure {
		return nil, fmt.Errorf("-tenants-config turns on API keys; refusing to accept them over plaintext HTTP — configure -tls-cert/-tls-key or pass -insecure")
	}
	tenants, err := serve.LoadTenants(o.tenantsPath)
	if err != nil {
		return nil, fmt.Errorf("-tenants-config: %v", err)
	}
	return tenants, nil
}

// buildArtifacts builds the bucket store when -s3-endpoint is set and
// returns nil otherwise; serve.New then opens the -artifact-store
// directory itself. The serve layer mmaps artifacts from local paths, so
// the bucket sits under a local tier: -artifact-store, else
// -state-dir/artifact-cache, else a temp dir. Credential safety rides on
// backend.NewS3: keys over plaintext HTTP are refused unless -insecure.
func buildArtifacts(o options) (backend.Store, string, error) {
	if o.s3.Endpoint == "" {
		return nil, "", nil
	}
	cfg := o.s3
	cfg.Logf = log.Printf
	s3, err := backend.NewS3(cfg)
	if err != nil {
		return nil, "", err
	}
	dir := o.artifactDir
	if dir == "" && o.stateDir != "" {
		dir = filepath.Join(o.stateDir, "artifact-cache")
	}
	if dir == "" {
		dir, err = os.MkdirTemp("", "mlcserve-artifacts-*")
		if err != nil {
			return nil, "", err
		}
	}
	local, err := store.OpenFileStore(dir)
	if err != nil {
		return nil, "", fmt.Errorf("local tier %s: %w", dir, err)
	}
	desc := fmt.Sprintf("s3 %s/%s (local tier %s)", cfg.Endpoint, cfg.Bucket, dir)
	return backend.NewTiered(local, s3), desc, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mlcserve: ")
	var (
		addr         = flag.String("addr", ":9292", "listen address (host:port)")
		jobs         = flag.Int("jobs", 4, "max concurrently running jobs")
		queue        = flag.Int("queue", 16, "max jobs waiting for a slot per tenant before 429")
		par          = flag.Int("par", 0, "simulation workers per job (0 = GOMAXPROCS)")
		arenaBudget  = flag.Int64("arena-budget-mb", 1024, "workload cache budget in MiB")
		poolPerGeom  = flag.Int("pool-per-geometry", 4, "idle hierarchies kept per cache geometry")
		resultPoints = flag.Int("result-cache-points", 65536, "per-point result cache capacity")
		stateDir     = flag.String("state-dir", "", "journal results and jobs here; restart replays them (empty = in-memory only)")
		journalMax   = flag.Int64("journal-max-mb", 64, "journal segment rotation threshold in MiB (with -state-dir)")
		tenantsPath  = flag.String("tenants-config", "", "JSON tenant table turning on API-key auth, quotas, and fair scheduling")
		anonRate     = flag.Float64("tenant-rate", 0, "anonymous-tenant admission rate in jobs/sec without -tenants-config (0 = unlimited)")
		anonBurst    = flag.Int("tenant-burst", 0, "anonymous-tenant admission burst (0 = rate-derived)")
		artifactDir  = flag.String("artifact-store", "", "serve and accept content-addressed trace artifacts under /artifacts/ from this directory (with -s3-endpoint: the persistent local tier over the bucket)")
		s3Flags      = backend.RegisterS3Flags(flag.CommandLine)
		gcInterval   = flag.Duration("store-gc-interval", 0, "run artifact-store GC cycles this often (0 = never)")
		gcGrace      = flag.Duration("store-gc-grace", time.Hour, "never collect objects younger than this")
		tlsCert      = flag.String("tls-cert", "", "serve HTTPS with this PEM certificate (with -tls-key)")
		tlsKey       = flag.String("tls-key", "", "PEM private key for -tls-cert")
		insecure     = flag.Bool("insecure", false, "allow API keys over plaintext HTTP (testing only)")
		maxAttempts  = flag.Int("max-job-attempts", 3, "interrupted attempts before a job is quarantined as poisoned (with -state-dir)")
		maxJobBytes  = flag.Int64("max-job-bytes", 0, "reject jobs whose estimated arena exceeds this many bytes with 413 (0 = unlimited)")
		maxJobCost   = flag.Int64("max-job-cost", 0, "reject jobs whose estimated work in reference simulations (trace refs x (1 + points/16), or points x refs with check_invariants) exceeds this with 413 (0 = unlimited)")
		maxInflight  = flag.Int64("max-inflight-bytes", 0, "aggregate estimated bytes admitted at once before 503 (0 = 2x arena budget, negative = unlimited)")
		maxDeadline  = flag.Duration("max-job-deadline", 0, "cap on the deadline a job spec may request (0 = no cap)")
		streamWrite  = flag.Duration("stream-write-timeout", 60*time.Second, "disconnect a client whose stream write blocks this long (0 = disabled)")
		faultPoint   = flag.String("fault-point", "", "test-only crash injection, e.g. runjob:seed=666 (never use in production)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Minute, "max wait for in-flight jobs on shutdown")
		quiet        = flag.Bool("quiet", false, "suppress per-job logging")
		cpuProf      = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf      = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	sec := store.Security{CertFile: *tlsCert, KeyFile: *tlsKey, Insecure: *insecure}
	s3, err := s3Flags.Config(*insecure)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlcserve: %v\n", err)
		os.Exit(2)
	}
	opts := options{
		jobs: *jobs, queue: *queue, arenaBudget: *arenaBudget,
		stateDir: *stateDir, artifactDir: *artifactDir, journalMaxMB: *journalMax,
		tenantsPath: *tenantsPath, anonRate: *anonRate, anonBurst: *anonBurst,
		maxAttempts: *maxAttempts, maxJobBytes: *maxJobBytes,
		maxJobCost: *maxJobCost, maxInflight: *maxInflight, maxDeadline: *maxDeadline,
		streamTimeout: *streamWrite, faultPoint: *faultPoint, sec: sec, s3: s3,
		gcInterval: *gcInterval, gcGrace: *gcGrace,
	}
	tenants, err := validate(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlcserve: %v\n", err)
		os.Exit(2)
	}
	artifacts, backendDesc, err := buildArtifacts(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlcserve: %v\n", err)
		os.Exit(2)
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()

	// The flag says "0 disables the stream timeout"; the Config says
	// "0 means default, negative disables". Translate.
	streamTimeout := *streamWrite
	if streamTimeout == 0 {
		streamTimeout = -1
	}
	cfg := serve.Config{
		MaxJobs:           *jobs,
		MaxQueue:          *queue,
		Parallelism:       *par,
		ArenaBudgetBytes:  *arenaBudget << 20,
		PoolPerGeometry:   *poolPerGeom,
		ResultCachePoints: *resultPoints,
		StateDir:          *stateDir,
		ArtifactDir:       *artifactDir,
		Artifacts:         artifacts,
		JournalMaxBytes:   *journalMax << 20,
		Tenants:           tenants,
		AnonRatePerSec:    *anonRate,
		AnonBurst:         *anonBurst,
		MaxJobAttempts:    *maxAttempts,
		Cost: serve.CostModel{
			MaxJobBytes:      *maxJobBytes,
			MaxJobCost:       *maxJobCost,
			MaxInflightBytes: *maxInflight,
		},
		MaxJobDeadline:     *maxDeadline,
		StreamWriteTimeout: streamTimeout,
		FaultPoint:         *faultPoint,
	}
	if !*quiet {
		cfg.Logf = log.Printf
	}
	s, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlcserve: %v\n", err)
		os.Exit(2)
	}
	if n := s.ResumeInterrupted(); n > 0 {
		log.Printf("resuming %d interrupted jobs from %s", n, *stateDir)
	}
	if backendDesc != "" {
		log.Printf("artifact backend: %s", backendDesc)
	}

	if *faultPoint != "" {
		log.Printf("WARNING: -fault-point %s armed; this process will crash on matching jobs (testing only)", *faultPoint)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *gcInterval > 0 {
		s.StartArtifactGC(ctx, *gcInterval, *gcGrace)
		log.Printf("artifact gc: every %v, grace %v", *gcInterval, *gcGrace)
	}

	srv, serveErr, err := serve.Listen(*addr, s.Handler(), sec)
	if err != nil {
		log.Fatalf("serve %s: %v", *addr, err)
	}
	scheme := "http"
	if sec.TLSServer() {
		scheme = "https"
	}
	log.Printf("listening on %s (%s; POST /jobs, GET /healthz, GET /metrics)", *addr, scheme)

	select {
	case err := <-serveErr:
		log.Fatalf("serve %s: %v", *addr, err)
	case <-ctx.Done():
	}

	// Graceful drain: refuse new work, let streaming grids finish.
	s.Drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.Canceled) {
		log.Printf("drain incomplete after %v: %v", *drainTimeout, err)
		os.Exit(1)
	}
	s.Close()
	log.Print("drained cleanly")
}
