// Command sweep runs a grid of simulations over the L2 design space of the
// base machine — size × cycle time × associativity — and emits a table or
// CSV of relative execution times and miss ratios, for exploring design
// points beyond the paper's figures.
//
// Sweeps are fault-tolerant: points run on a worker pool, a panic or error
// in one simulation fails only that point, and with -checkpoint the
// completed points are journaled so an interrupted run (Ctrl-C, crash,
// timeout) can continue where it left off with -resume.
//
// Instead of the synthetic workload, -trace simulates a trace file; an
// .mlca artifact (see cmd/tracegen -format artifact) is mmap-ed straight
// into arena form, so several sweep processes opening the same artifact
// share one page-cache copy and pay zero decode work. -shard i/n runs only
// the i-th of n disjoint partitions of the grid — launch n processes with
// the same artifact and shards 0/n .. n-1/n to split a sweep across
// processes or machines.
//
// For coordinated multi-machine sweeps, -serve runs a coordinator that
// leases grid shards to workers over HTTP and merges their results
// (byte-identical to a single-process run); -join runs a worker against a
// coordinator. Leases expire and are retried elsewhere when a worker dies,
// stragglers are speculatively re-executed, and if no workers ever show up
// the coordinator finishes the grid in-process.
//
// Workers need no shared filesystem: a coordinator serving an .mlca trace
// publishes it by content digest at /artifacts/, and workers fetch it into
// a local verified cache (-artifact-cache) on demand, resuming torn
// transfers with Range requests. -token/-tls-cert/-tls-key/-tls-ca secure
// both the protocol and the transfers; -publish additionally accepts
// artifact uploads into a store directory.
//
// The grid runs through the one-pass planner: points whose timing the L1
// boundary replay reproduces exactly share a single trace pass, and only
// timing-sensitive configurations (-check, among others) are fully
// simulated. The output is byte-identical to simulating every point.
//
// Usage:
//
//	sweep -sizes 16-4096 -cycles 1-10 -assoc 1 -n 1000000
//	sweep -sizes 64-1024 -cycles 2-6 -assoc 2 -l1 32 -csv > out.csv
//	sweep -sizes 16-4096 -cycles 1-10 -checkpoint run.ckpt
//	sweep -sizes 16-4096 -cycles 1-10 -checkpoint run.ckpt -resume
//	sweep -trace mix.mlca -shard 0/4 -csv > shard0.csv
//	sweep -trace mix.mlca -serve :9191 -shards 8 -csv > merged.csv
//	sweep -join coordinator-host:9191
//	sweep -trace mix.mlca -serve :9191 -tls-cert crt.pem -tls-key key.pem -token s3cret
//	sweep -join coordinator-host:9191 -tls-ca crt.pem -token s3cret -artifact-cache /var/cache/mlc
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mlcache/internal/checkpoint"
	"mlcache/internal/coord"
	"mlcache/internal/cpu"
	"mlcache/internal/experiments"
	"mlcache/internal/prof"
	"mlcache/internal/store"
	"mlcache/internal/store/backend"
	"mlcache/internal/sweep"
	"mlcache/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")
	var (
		sizesArg  = flag.String("sizes", "16-4096", "L2 size range in KB (lo-hi, powers of two)")
		cyclesArg = flag.String("cycles", "1-10", "L2 cycle time range in CPU cycles (lo-hi)")
		assoc     = flag.Int("assoc", 1, "L2 associativity (0 = fully associative)")
		l1        = flag.Int("l1", 4, "total L1 size in KB (split I+D)")
		slow      = flag.Bool("slowmem", false, "use the 2x slower main memory")
		n         = flag.Int64("n", 1_000_000, "trace length in references (with -trace: 0 = whole file, else a cap)")
		seed      = flag.Int64("seed", 1, "workload seed")
		tracePath = flag.String("trace", "", "trace file to sweep (text/binary/artifact by suffix; default: synthetic workload)")
		lenient   = flag.Int("lenient", 0, "corrupt-record skip budget for non-artifact -trace files (0 = strict)")
		shardArg  = flag.String("shard", "", "run only shard i of n of the grid, as i/n (e.g. 0/4)")
		csv       = flag.Bool("csv", false, "emit CSV instead of a table")

		par      = flag.Int("par", 0, "concurrent simulations (0 = GOMAXPROCS)")
		ckptPath = flag.String("checkpoint", "", "journal completed points to this file")
		resume   = flag.Bool("resume", false, "skip points already journaled in -checkpoint")
		timeout  = flag.Duration("point-timeout", 0, "per-point simulation timeout (0 = none)")
		retries  = flag.Int("retries", 0, "extra attempts for a failed point")
		check    = flag.Bool("check", false, "validate cache-state invariants after every access (slow)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")

		serve         = flag.String("serve", "", "run a sweep coordinator listening on this address (host:port)")
		join          = flag.String("join", "", "join a coordinator at this address as a worker (grid flags come from the coordinator)")
		workerID      = flag.String("worker-id", "", "worker name for -join (default host.pid)")
		shards        = flag.Int("shards", 8, "with -serve: number of shard leases the grid is split into")
		leaseTTL      = flag.Duration("lease-ttl", 10*time.Second, "with -serve: lease lifetime without a heartbeat before a shard is reassigned")
		heartbeat     = flag.Duration("heartbeat", 0, "with -serve: worker heartbeat interval (default lease-ttl/5)")
		localFallback = flag.Duration("local-fallback", 10*time.Second, "with -serve: finish shards in-process if no worker is active for this long (0 = never)")

		publishDir = flag.String("publish", "", "with -serve: also accept artifact uploads (PUT /artifacts/{digest}) into this store directory and serve them")
		cacheDir   = flag.String("artifact-cache", "", "with -join: directory for the content-addressed artifact cache (default <user cache dir>/mlcache/artifacts)")
		cacheMB    = flag.Int64("artifact-cache-mb", 4096, "with -join: artifact cache budget in MiB (<= 0 = unbounded)")
		throttle   = flag.Int64("fetch-throttle-bps", 0, "with -join: cap artifact download throughput in bytes/sec (0 = unlimited)")
		s3Endpoint = flag.String("s3-endpoint", "", "with -join: fetch artifacts from this S3-compatible endpoint instead of the coordinator")
		s3Bucket   = flag.String("s3-bucket", "", "with -join -s3-endpoint: bucket holding the artifact objects")
		s3Prefix   = flag.String("s3-prefix", "", "with -join -s3-endpoint: object key prefix (default mlca/)")
		s3Region   = flag.String("s3-region", "", "with -join -s3-endpoint: SigV4 signing region (default us-east-1)")
		s3Access   = flag.String("s3-access-key", "", "with -join -s3-endpoint: access key ID (or env MLCA_S3_ACCESS_KEY)")
		s3Secret   = flag.String("s3-secret-key", "", "with -join -s3-endpoint: secret key (or env MLCA_S3_SECRET_KEY)")
		token      = flag.String("token", "", "bearer token: required of clients with -serve, presented to the coordinator with -join")
		tlsCert    = flag.String("tls-cert", "", "with -serve: TLS certificate file (enables HTTPS)")
		tlsKey     = flag.String("tls-key", "", "with -serve: TLS key file")
		tlsCA      = flag.String("tls-ca", "", "with -join: PEM root CA to trust for the coordinator (default: system roots)")
		insecure   = flag.Bool("insecure", false, "permit the bearer token over plaintext HTTP (trusted networks only)")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()

	// SIGINT/SIGTERM cancel the sweep; in-flight points stop at the next
	// stream check and completed work is kept (and journaled).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	sec := store.Security{
		Token:    *token,
		CertFile: *tlsCert,
		KeyFile:  *tlsKey,
		CAFile:   *tlsCA,
		Insecure: *insecure,
	}

	if *join != "" {
		if *serve != "" {
			log.Fatal("-serve and -join are mutually exclusive")
		}
		if *s3Access == "" {
			*s3Access = os.Getenv("MLCA_S3_ACCESS_KEY")
		}
		if *s3Secret == "" {
			*s3Secret = os.Getenv("MLCA_S3_SECRET_KEY")
		}
		wo := workerOptions{
			id: *workerID, par: *par, retries: *retries,
			cacheDir: *cacheDir, cacheMB: *cacheMB, throttleBPS: *throttle, sec: sec,
			s3Endpoint: *s3Endpoint, s3Bucket: *s3Bucket, s3Prefix: *s3Prefix,
			s3Region: *s3Region, s3AccessKey: *s3Access, s3SecretKey: *s3Secret,
		}
		if err := runWorker(ctx, *join, wo); err != nil && !errors.Is(err, context.Canceled) {
			log.Fatal(err)
		}
		return
	}

	loS, hiS, err := parseRange(*sizesArg)
	if err != nil {
		log.Fatalf("bad -sizes: %v", err)
	}
	loC, hiC, err := parseRange(*cyclesArg)
	if err != nil {
		log.Fatalf("bad -cycles: %v", err)
	}
	if *resume && *ckptPath == "" {
		log.Fatal("-resume needs -checkpoint")
	}
	shardI, shardN, err := sweep.ParseShard(*shardArg)
	if err != nil {
		log.Fatalf("bad -shard: %v", err)
	}

	spec := coord.JobSpec{
		SizesBytes:      sweep.SizesPow2(loS, hiS),
		CyclesNS:        sweep.CyclesRange(int(loC), int(hiC), experiments.CPUCycleNS),
		Assoc:           *assoc,
		L1KB:            *l1,
		SlowMem:         *slow,
		TracePath:       *tracePath,
		Refs:            *n,
		Seed:            *seed,
		Lenient:         *lenient,
		CheckInvariants: *check,
	}
	if err := spec.Validate(); err != nil {
		log.Fatal(err)
	}

	if *serve != "" {
		if shardN > 1 {
			log.Fatal("-shard splits a local sweep; with -serve use -shards")
		}
		if err := sec.CheckServer(); err != nil {
			log.Fatal(err)
		}
		// An artifact-backed grid is published by content: workers that
		// share the coordinator's filesystem open the path directly, and
		// everyone else fetches the digest from /artifacts/.
		if trace.IsArtifactPath(spec.TracePath) {
			d, size, err := store.DigestFile(spec.TracePath)
			if err != nil {
				log.Fatal(err)
			}
			crc, err := trace.ArtifactChecksum(spec.TracePath)
			if err != nil {
				log.Fatal(err)
			}
			spec.ArtifactDigest = d.String()
			spec.ArtifactCRC = crc
			log.Printf("serving trace artifact %s (%d bytes) at /artifacts/", d, size)
		}
		cfg := coord.Config{
			Job:                spec,
			Shards:             *shards,
			LeaseTTL:           *leaseTTL,
			Heartbeat:          *heartbeat,
			LocalFallbackAfter: *localFallback,
			LocalParallelism:   *par,
			Logf:               log.Printf,
		}
		code := runCoordinator(ctx, *serve, cfg, coordinatorOptions{
			ckptPath: *ckptPath, resume: *resume, csv: *csv,
			publishDir: *publishDir, sec: sec,
		})
		stop()
		stopProf()
		os.Exit(code)
	}

	code := runLocal(ctx, spec, shardI, shardN, localOptions{
		par: *par, timeout: *timeout, retries: *retries,
		ckptPath: *ckptPath, resume: *resume, csv: *csv,
	})
	stop()
	stopProf()
	os.Exit(code)
}

type workerOptions struct {
	id          string
	par         int
	retries     int
	cacheDir    string
	cacheMB     int64
	throttleBPS int64
	sec         store.Security

	// s3Endpoint, when set, points cache fills at a bucket instead of the
	// coordinator's /artifacts/ endpoint, so a large fleet does not funnel
	// every cold fetch through one process.
	s3Endpoint  string
	s3Bucket    string
	s3Prefix    string
	s3Region    string
	s3AccessKey string
	s3SecretKey string
}

// runWorker joins a coordinator and simulates leased shards until the grid
// is done. Every grid parameter comes from the coordinator's job spec;
// traces the spec names by digest are fetched from the coordinator into
// the worker's local artifact cache.
func runWorker(ctx context.Context, addr string, wo workerOptions) error {
	if !strings.Contains(addr, "://") {
		// A worker given a CA to trust is clearly expected to speak TLS.
		if wo.sec.CAFile != "" {
			addr = "https://" + addr
		} else {
			addr = "http://" + addr
		}
	}
	id := wo.id
	if id == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		id = fmt.Sprintf("%s.%d", host, os.Getpid())
	}
	client, err := wo.sec.Client()
	if err != nil {
		return err
	}
	cacheDir := wo.cacheDir
	if cacheDir == "" {
		base, err := os.UserCacheDir()
		if err != nil {
			base = os.TempDir()
		}
		cacheDir = filepath.Join(base, "mlcache", "artifacts")
	}
	local, err := store.OpenFileStore(cacheDir)
	if err != nil {
		return err
	}
	var remote backend.Backend = &backend.HTTP{
		Base:        addr,
		HTTPClient:  client,
		ThrottleBPS: wo.throttleBPS,
		Logf:        log.Printf,
	}
	if wo.s3Endpoint != "" {
		s3, err := backend.NewS3(backend.S3Config{
			Endpoint:  wo.s3Endpoint,
			Bucket:    wo.s3Bucket,
			Prefix:    wo.s3Prefix,
			Region:    wo.s3Region,
			AccessKey: wo.s3AccessKey,
			SecretKey: wo.s3SecretKey,
			Insecure:  wo.sec.Insecure,
			Logf:      log.Printf,
		})
		if err != nil {
			return err
		}
		remote = s3
		log.Printf("worker %s: filling artifact cache from %s/%s", id, wo.s3Endpoint, wo.s3Bucket)
	}
	cache := backend.NewTiered(local, remote)
	cache.Budget = wo.cacheMB << 20
	cache.Logf = log.Printf
	w := &coord.Worker{
		ID:           id,
		Coordinator:  addr,
		Client:       client,
		Parallelism:  wo.par,
		PointRetries: wo.retries,
		Artifacts:    cache,
		Logf:         log.Printf,
	}
	err = w.Run(ctx)
	if st := cache.Stats(); st.Promotions > 0 || st.LocalHits > 0 {
		log.Printf("artifact cache %s: %d hits, %d fetches, %d evictions",
			cacheDir, st.LocalHits, st.Promotions, st.Evictions)
	}
	return err
}

type coordinatorOptions struct {
	ckptPath   string
	resume     bool
	csv        bool
	publishDir string
	sec        store.Security
}

// resolverChain tries each resolver in turn; the coordinator's own trace
// artifact first, then the publish store.
type resolverChain []store.Resolver

func (rc resolverChain) Resolve(d store.Digest) (string, error) {
	var lastErr error = os.ErrNotExist
	for _, r := range rc {
		p, err := r.Resolve(d)
		if err == nil {
			return p, nil
		}
		lastErr = err
	}
	return "", lastErr
}

// runCoordinator serves the grid to workers, merges their results, and
// renders the merged table. With -checkpoint, merged points are journaled
// exactly like local sweeps, and -resume seeds already-journaled points.
// The coordinator doubles as the artifact origin: its own trace artifact
// (and, with -publish, any uploaded object) is served at /artifacts/.
func runCoordinator(ctx context.Context, addr string, cfg coord.Config, co coordinatorOptions) int {
	pts := cfg.Job.Points()
	if co.resume {
		prior := loadPrior(co.ckptPath, len(pts))
		cfg.Prior = map[int]cpu.Result{}
		for i, pt := range pts {
			if run, ok := prior[pt.String()]; ok {
				cfg.Prior[i] = run
			}
		}
	}
	var journal *checkpoint.Journal
	if co.ckptPath != "" {
		var err error
		journal, err = checkpoint.Open(co.ckptPath)
		if err != nil {
			log.Fatal(err)
		}
		defer journal.Close()
		cfg.OnResult = func(pt sweep.Point, run cpu.Result) {
			if err := journal.Append(pt.String(), run); err != nil {
				log.Printf("checkpoint: %v", err)
			}
		}
	}

	c, err := coord.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	var sources resolverChain
	if d := cfg.Job.Digest(); !d.IsZero() {
		sources = append(sources, store.Static{d: cfg.Job.TracePath})
	}
	artifacts := &store.Handler{Source: sources, Logf: log.Printf}
	if co.publishDir != "" {
		uploads, err := store.OpenFileStore(co.publishDir)
		if err != nil {
			log.Fatal(err)
		}
		sources = append(sources, uploads)
		artifacts.Source = sources
		artifacts.Uploads = uploads
	}
	root := http.NewServeMux()
	root.Handle(store.PathArtifacts, artifacts)
	root.Handle("/", c.Handler())

	// Same slowloris hardening as cmd/mlcserve: bound header reads, header
	// size, and idle keep-alives. No write timeout — workers hold
	// long-polls and artifact downloads legitimately.
	srv := &http.Server{
		Addr:              addr,
		Handler:           co.sec.RequireAuth(root),
		ReadHeaderTimeout: 10 * time.Second,
		MaxHeaderBytes:    1 << 20,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() {
		if co.sec.TLSServer() {
			serveErr <- srv.ListenAndServeTLS(co.sec.CertFile, co.sec.KeyFile)
		} else {
			serveErr <- srv.ListenAndServe()
		}
	}()
	log.Printf("coordinator on %s: %d grid points in %d shards (join with: sweep -join %s)",
		addr, len(pts), cfg.Shards, addr)

	runErr := c.Run(ctx)
	select {
	case err := <-serveErr:
		// ListenAndServe only returns on failure; surface it (a bad -serve
		// address would otherwise look like a hang until local fallback).
		log.Fatalf("serve %s: %v", addr, err)
	default:
	}
	if runErr == nil {
		// Keep answering for a beat: workers that were sleeping on a wait
		// poll (capped at 1s) learn the grid is done instead of finding a
		// dead socket. Workers whose upload finished the grid already know.
		time.Sleep(1200 * time.Millisecond)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = srv.Shutdown(shutCtx)

	if n := c.TraceSkipped(); n > 0 {
		log.Printf("workers skipped up to %d corrupt trace record(s) during decode", n)
	}
	results := c.Results()
	if err := sweep.WriteTable(os.Stdout, results, experiments.CPUCycleNS, co.csv); err != nil {
		log.Fatal(err)
	}
	if runErr != nil {
		done, total := c.Done()
		msg := fmt.Sprintf("interrupted: %d of %d points done", done, total)
		if co.ckptPath != "" {
			msg += "; rerun with -resume to continue"
		} else {
			msg += "; use -checkpoint to make sweeps resumable"
		}
		log.Print(msg)
		return 1
	}
	return 0
}

type localOptions struct {
	par      int
	timeout  time.Duration
	retries  int
	ckptPath string
	resume   bool
	csv      bool
}

// runLocal is the classic single-process sweep, built on the same job spec
// and renderer the distributed modes use, so all three produce identical
// bytes for identical grids.
func runLocal(ctx context.Context, spec coord.JobSpec, shardI, shardN int, lo localOptions) int {
	runner, res, err := spec.NewRunner()
	if err != nil {
		log.Fatal(err)
	}
	defer res.Close()
	if res.TraceSkipped > 0 {
		log.Printf("trace: skipped %d corrupt record(s) during decode", res.TraceSkipped)
	}
	pts := spec.Points()
	if shardN > 1 {
		all := len(pts)
		pts = sweep.Shard(pts, shardI, shardN)
		log.Printf("shard %d/%d: %d of %d grid points", shardI, shardN, len(pts), all)
	}

	// Salvage prior results and open the journal.
	prior := map[string]cpu.Result{}
	if lo.resume {
		prior = loadPrior(lo.ckptPath, len(pts))
	}
	var journal *checkpoint.Journal
	if lo.ckptPath != "" {
		journal, err = checkpoint.Open(lo.ckptPath)
		if err != nil {
			log.Fatal(err)
		}
		defer journal.Close()
	}

	runner.Parallelism = lo.par
	opts := sweep.Options{
		PointTimeout: lo.timeout,
		Retries:      lo.retries,
		Backoff:      200 * time.Millisecond,
	}
	if len(prior) > 0 {
		opts.Skip = func(pt sweep.Point) bool {
			_, ok := prior[pt.String()]
			return ok
		}
	}
	if journal != nil {
		opts.OnResult = func(res sweep.Result) {
			if err := journal.Append(res.Point.String(), res.Run); err != nil {
				log.Printf("checkpoint: %v", err)
			}
		}
	}

	results, runErr := runner.RunContext(ctx, pts, opts)

	// Fill skipped points from the journal so the report covers the whole
	// grid, and split out the failures.
	var done, failed int
	for i := range results {
		if results[i].Skipped {
			results[i].Run = prior[results[i].Point.String()]
			done++
			continue
		}
		if results[i].Err != nil {
			failed++
			continue
		}
		done++
	}

	if err := sweep.WriteTable(os.Stdout, results, experiments.CPUCycleNS, lo.csv); err != nil {
		log.Fatal(err)
	}

	for _, r := range results {
		// On interrupt, skip the flood of "context canceled" lines for the
		// points that never ran; per-point failures (including timeouts)
		// are always itemized.
		if r.Err != nil && !(runErr != nil && sweep.Canceled(r.Err)) {
			log.Printf("point %v failed after %d attempt(s): %v", r.Point, r.Attempts, r.Err)
		}
	}
	switch {
	case runErr != nil:
		msg := fmt.Sprintf("interrupted: %d of %d points done", done, len(pts))
		if lo.ckptPath != "" {
			msg += "; rerun with -resume to continue"
		} else {
			msg += "; use -checkpoint to make sweeps resumable"
		}
		log.Print(msg)
		return 1
	case failed > 0:
		log.Printf("%d of %d points failed", failed, len(pts))
		return 1
	}
	return 0
}

// loadPrior reads a checkpoint journal into point-keyed results; a missing
// file means a fresh start, anything else is fatal.
func loadPrior(ckptPath string, total int) map[string]cpu.Result {
	prior := map[string]cpu.Result{}
	set, err := checkpoint.Load(ckptPath)
	switch {
	case errors.Is(err, os.ErrNotExist):
		log.Printf("checkpoint %s not found; starting fresh", ckptPath)
		return prior
	case err != nil:
		log.Fatal(err)
	}
	for key, raw := range set.Records {
		var run cpu.Result
		if err := json.Unmarshal(raw, &run); err != nil {
			log.Printf("checkpoint: record %s unreadable, will re-simulate: %v", key, err)
			continue
		}
		prior[key] = run
	}
	if set.Dropped > 0 {
		log.Printf("checkpoint: dropped %d corrupt record(s)", set.Dropped)
	}
	log.Printf("resuming: %d of %d points already simulated", len(prior), total)
	return prior
}

func parseRange(s string) (lo, hi int64, err error) {
	parts := strings.SplitN(s, "-", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("want lo-hi, got %q", s)
	}
	lo, err = strconv.ParseInt(parts[0], 10, 64)
	if err != nil {
		return 0, 0, err
	}
	hi, err = strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		return 0, 0, err
	}
	if lo <= 0 || hi < lo {
		return 0, 0, fmt.Errorf("range %q out of order", s)
	}
	return lo, hi, nil
}
