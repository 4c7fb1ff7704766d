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
// the coordinator finishes the grid in-process. The coordinator listens
// on mlcserve's server, so it also answers /healthz, /metrics and /jobs.
//
// Workers need no shared filesystem: a coordinator serving an .mlca trace
// publishes it by content digest at /artifacts/, and workers fetch it into
// a local verified cache (-artifact-cache) on demand, resuming torn
// transfers with Range requests. -token/-tls-cert/-tls-key/-tls-ca secure
// both the protocol and the transfers; -publish additionally accepts
// artifact uploads into a store directory. A worker given -s3-endpoint
// fills its cache from that S3-compatible bucket instead of the
// coordinator; the -s3-* flags are refused without -join.
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
//	sweep -join coordinator-host:9191 -s3-endpoint https://s3:9000 -s3-bucket traces
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
	"strconv"
	"strings"
	"syscall"
	"time"

	"mlcache/internal/checkpoint"
	"mlcache/internal/coord"
	"mlcache/internal/cpu"
	"mlcache/internal/experiments"
	"mlcache/internal/prof"
	"mlcache/internal/serve"
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
		s3Flags    = backend.RegisterS3Flags(flag.CommandLine)
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

	s3, err := s3Flags.Config(*insecure)
	if err != nil {
		log.Fatal(err)
	}
	if *join != "" {
		if *serve != "" {
			log.Fatal("-serve and -join are mutually exclusive")
		}
		wo := workerOptions{
			id: *workerID, par: *par, retries: *retries,
			cacheDir: *cacheDir, cacheMB: *cacheMB, throttleBPS: *throttle, sec: sec, s3: s3,
		}
		if err := runWorker(ctx, *join, wo); err != nil && !errors.Is(err, context.Canceled) {
			log.Fatal(err)
		}
		return
	}
	if s3.Endpoint != "" {
		log.Fatal("-s3-endpoint needs -join: only workers fill their artifact cache from a bucket")
	}

	loS, hiS, err := parseSizes(*sizesArg)
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
	grid := gridOptions{ckptPath: *ckptPath, resume: *resume, csv: *csv}

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
		code := runServe(ctx, *serve, cfg, *publishDir, sec, grid)
		stop()
		stopProf()
		os.Exit(code)
	}

	code := runLocal(ctx, spec, shardI, shardN, localOptions{
		par: *par, timeout: *timeout, retries: *retries, gridOptions: grid,
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

	// s3, when it has an endpoint, points cache fills at a bucket instead
	// of the coordinator's /artifacts/ endpoint, so a large fleet does not
	// funnel every cold fetch through one process.
	s3 backend.S3Config
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
	if wo.s3.Endpoint != "" {
		cfg := wo.s3
		cfg.Logf = log.Printf
		s3, err := backend.NewS3(cfg)
		if err != nil {
			return err
		}
		remote = s3
		log.Printf("worker %s: filling artifact cache from %s/%s", id, cfg.Endpoint, cfg.Bucket)
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

// runServe hosts the grid on an in-process serve.Server: workers lease
// shards of it from cfg's coordinator and fetch its trace artifact by
// digest, and the merged results report through runGrid like a local
// sweep's. With -publish the server also accepts artifact uploads into
// publishDir; with -token every endpoint requires it.
func runServe(ctx context.Context, addr string, cfg coord.Config, publishDir string, sec store.Security, g gridOptions) int {
	c, err := coord.New(cfg)
	if err != nil {
		log.Print(err)
		return 1
	}
	scfg := serve.Config{ArtifactDir: publishDir, Logf: log.Printf}
	if sec.Token != "" {
		// One named tenant with a non-empty key always parses.
		scfg.Tenants, _ = serve.ParseTenants([]serve.TenantConfig{{Name: "sweep", Key: sec.Token}})
	}
	srv, err := serve.New(scfg)
	if err != nil {
		log.Print(err)
		return 1
	}
	srv.Lease(c, cfg.Job)
	hs, _, err := serve.Listen(addr, srv.Handler(), sec)
	if err != nil {
		log.Printf("serve %s: %v", addr, err)
		return 1
	}
	defer hs.Close()
	pts := cfg.Job.Points()
	log.Printf("coordinator on %s: %d grid points in %d shards (join with: sweep -join %s)",
		addr, len(pts), cfg.Shards, addr)

	return runGrid(ctx, pts, func(ctx context.Context, pts []sweep.Point, opts sweep.Options) ([]sweep.Result, error) {
		results, err := c.RunContext(ctx, pts, opts)
		if err == nil {
			// Keep answering for a beat: workers that were sleeping on a
			// wait poll (capped at 1s) learn the grid is done instead of
			// finding a dead socket. Workers whose upload finished the grid
			// already know.
			time.Sleep(1200 * time.Millisecond)
		}
		shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = hs.Shutdown(shutCtx)
		if n := c.TraceSkipped(); n > 0 {
			log.Printf("workers skipped up to %d corrupt trace record(s) during decode", n)
		}
		return results, err
	}, g)
}

// gridOptions say how runGrid journals and reports a grid.
type gridOptions struct {
	ckptPath string
	resume   bool
	csv      bool
}

type localOptions struct {
	gridOptions
	par     int
	timeout time.Duration
	retries int
}

// runLocal is the classic single-process sweep, built on the same job spec
// and renderer the distributed modes use, so all three produce identical
// bytes for identical grids.
func runLocal(ctx context.Context, spec coord.JobSpec, shardI, shardN int, lo localOptions) int {
	arena, closer, skipped, err := spec.MaterializeArena(ctx)
	switch {
	case err == nil:
		defer closer.Close()
	case ctx.Err() != nil:
		// Interrupted while loading: under the cancelled ctx RunContext
		// runs nothing, so an empty arena serves, and the grid reports
		// like one interrupted mid-run.
		arena = trace.NewArena(nil)
	default:
		log.Fatal(err)
	}
	if skipped > 0 {
		log.Printf("trace: skipped %d corrupt record(s) during decode", skipped)
	}
	pts := spec.Points()
	if shardN > 1 {
		all := len(pts)
		pts = sweep.Shard(pts, shardI, shardN)
		log.Printf("shard %d/%d: %d of %d grid points", shardI, shardN, len(pts), all)
	}
	runner := spec.RunnerFor(arena)
	runner.Parallelism = lo.par
	return runGrid(ctx, pts, func(ctx context.Context, pts []sweep.Point, opts sweep.Options) ([]sweep.Result, error) {
		opts.PointTimeout, opts.Retries, opts.Backoff = lo.timeout, lo.retries, 200*time.Millisecond
		return runner.RunContext(ctx, pts, opts)
	}, lo.gridOptions)
}

// runGrid runs pts through run, which has the contract of
// sweep.Runner.RunContext, and reports the outcome; it returns the exit
// status. With -checkpoint each new result is journaled, and with -resume
// journaled points are skipped and shown as ckpt. It writes the table,
// itemizes failed points and reports an interrupted grid.
//
// A finished point is only queued by the simulation worker: one committer
// goroutine journals everything queued since its last write with one
// AppendBatch, and the table is written only after it has drained, so an
// interrupted run has journaled every point it reports done.
func runGrid(ctx context.Context, pts []sweep.Point, run func(context.Context, []sweep.Point, sweep.Options) ([]sweep.Result, error), g gridOptions) int {
	prior := map[string]cpu.Result{}
	if g.resume {
		var err error
		if prior, err = loadPrior(g.ckptPath, len(pts)); err != nil {
			log.Print(err)
			return 1
		}
	}
	var opts sweep.Options
	if len(prior) > 0 {
		opts.Skip = func(pt sweep.Point) bool {
			_, ok := prior[pt.String()]
			return ok
		}
	}
	drain := func() {}
	if g.ckptPath != "" {
		journal, err := checkpoint.Open(g.ckptPath)
		if err != nil {
			log.Print(err)
			return 1
		}
		defer journal.Close()
		commits := sweep.NewCommitter(func(batch []sweep.Result) {
			entries := make([]checkpoint.Entry, len(batch))
			for i, res := range batch {
				entries[i] = checkpoint.Entry{Key: res.Point.String(), Data: res.Run}
			}
			if err := journal.AppendBatch(entries); err != nil {
				log.Printf("checkpoint: %v", err)
			}
		})
		opts.OnResult = commits.Add
		drain = commits.Drain
	}

	results, runErr := run(ctx, pts, opts)
	drain()
	if results == nil {
		log.Print(runErr)
		return 1
	}

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

	if err := sweep.WriteTable(os.Stdout, results, experiments.CPUCycleNS, g.csv); err != nil {
		log.Print(err)
		return 1
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
		if g.ckptPath != "" {
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
// file means a fresh start.
func loadPrior(ckptPath string, total int) (map[string]cpu.Result, error) {
	prior := map[string]cpu.Result{}
	journal, err := checkpoint.LoadAs[cpu.Result](ckptPath)
	switch {
	case errors.Is(err, os.ErrNotExist):
		log.Printf("checkpoint %s not found; starting fresh", ckptPath)
		return prior, nil
	case err != nil:
		return nil, err
	}
	for _, r := range journal.Records {
		if r.Err != nil {
			log.Printf("checkpoint: record %s unreadable, will re-simulate: %v", r.Key, r.Err)
			continue
		}
		prior[r.Key] = r.Value
	}
	if journal.Dropped > 0 {
		log.Printf("checkpoint: dropped %d corrupt record(s)", journal.Dropped)
	}
	log.Printf("resuming: %d of %d points already simulated", len(prior), total)
	return prior, nil
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

// parseSizes parses -sizes: a range whose bounds are powers of two. The
// sweep doubles the size from lo while it is at most hi, so another hi
// would silently go unswept and another lo names caches memsys refuses.
func parseSizes(s string) (lo, hi int64, err error) {
	if lo, hi, err = parseRange(s); err != nil {
		return 0, 0, err
	}
	if lo&(lo-1) != 0 || hi&(hi-1) != 0 {
		return 0, 0, fmt.Errorf("range %q: bounds must be powers of two", s)
	}
	return lo, hi, nil
}
