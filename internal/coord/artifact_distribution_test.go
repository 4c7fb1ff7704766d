package coord_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlcache/internal/coord"
	"mlcache/internal/coord/chaos"
	"mlcache/internal/store"
	"mlcache/internal/store/backend"
	"mlcache/internal/sweep"
	"mlcache/internal/synth"
	"mlcache/internal/trace"
)

// Artifact-distribution chaos tests: the workers share no filesystem with
// the coordinator — the job names its trace only by digest, and each
// worker must fetch it from the coordinator's /artifacts/ endpoint into
// its own cache before it can simulate. The invariant is unchanged from
// the protocol chaos tests: whatever the transfer schedule does (drops,
// torn bodies, throttling, a worker killed mid-download), the merged CSV
// is byte-identical to a single-process run over the same artifact.

// publishArtifact materializes the chaos workload into an .mlca artifact
// and returns its path, digest, and header CRC.
func publishArtifact(t *testing.T, refs int64) (string, store.Digest, uint32) {
	t.Helper()
	arena, err := trace.Materialize(synth.PaperStream(1, refs))
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
	return path, d, crc
}

// artifactFleetWorker is a fleetWorker plus transfer knobs.
type artifactFleetWorker struct {
	fleetWorker
	throttleBPS int64
	cacheBytes  int64 // 0 = unbounded
}

// runArtifactFleet is runFleet with the store mounted: the coordinator
// serves its artifact at /artifacts/ (counting GETs), and every worker
// gets a private cache directory — no path in the JobSpec, no shared
// disk. Returns the merged CSV, per-point merge counts, artifact GET
// count, and each worker's cache for post-run inspection.
func runArtifactFleet(t *testing.T, cfg coord.Config, src store.Resolver, fleet []artifactFleetWorker) (string, map[string]int, int64, []*backend.Tiered) {
	t.Helper()
	var mergeMu sync.Mutex
	merges := map[string]int{}
	opts := sweep.Options{OnResult: func(r sweep.Result) {
		mergeMu.Lock()
		merges[r.Point.String()]++
		mergeMu.Unlock()
	}}
	c, err := coord.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var gets atomic.Int64
	storeHandler := &store.Handler{Source: src}
	root := http.NewServeMux()
	root.Handle(store.PathArtifacts, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			gets.Add(1)
		}
		storeHandler.ServeHTTP(w, r)
	}))
	root.Handle("/", c.Handler())
	srv := httptest.NewServer(root)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	wait := startGrid(ctx, c, cfg.Job, opts)

	caches := make([]*backend.Tiered, len(fleet))
	var wg sync.WaitGroup
	errs := make([]error, len(fleet))
	for i, fw := range fleet {
		local, err := store.OpenFileStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		wctx, wcancel := context.WithCancel(ctx)
		defer wcancel()
		tr := &chaos.Transport{Rules: fw.rules}
		if fw.kill {
			tr.OnFire = func(chaos.Rule, *http.Request) { wcancel() }
		}
		client := &http.Client{Transport: tr}
		cache := backend.NewTiered(local, &backend.HTTP{
			Base:        srv.URL,
			HTTPClient:  client,
			ThrottleBPS: fw.throttleBPS,
			Logf:        t.Logf,
		})
		cache.Budget = fw.cacheBytes
		caches[i] = cache
		w := &coord.Worker{
			ID:          fw.id,
			Coordinator: srv.URL,
			Client:      client,
			Parallelism: 1,
			Artifacts:   cache,
			Logf:        t.Logf,
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.Run(wctx)
		}(i)
	}

	results := mustFinish(t, wait)
	wg.Wait()
	for i, fw := range fleet {
		if !fw.kill && errs[i] != nil {
			t.Errorf("worker %s exited with error: %v", fw.id, errs[i])
		}
	}
	mergeMu.Lock()
	defer mergeMu.Unlock()
	counts := make(map[string]int, len(merges))
	for k, v := range merges {
		counts[k] = v
	}
	return renderCSV(t, results), counts, gets.Load(), caches
}

// artifactChaosSpecs returns the distributed (digest-only) spec and the
// single-process reference spec (path-only) over the same artifact.
func artifactChaosSpecs(path string, d store.Digest, crc uint32) (coord.JobSpec, coord.JobSpec) {
	spec := chaosSpec()
	spec.Refs = 0
	spec.Seed = 0
	dist := spec
	dist.ArtifactDigest = d.String()
	dist.ArtifactCRC = crc
	ref := spec
	ref.TracePath = path
	return dist, ref
}

func TestArtifactDistributionMatchesSingleProcess(t *testing.T) {
	path, d, crc := publishArtifact(t, 20000)
	dist, ref := artifactChaosSpecs(path, d, crc)
	want := renderCSV(t, referenceRun(t, ref))

	got, counts, gets, caches := runArtifactFleet(t,
		coord.Config{Job: dist, Shards: 3, LeaseTTL: 2 * time.Second},
		store.Static{d: path},
		[]artifactFleetWorker{
			{fleetWorker: fleetWorker{id: "w1"}},
			{fleetWorker: fleetWorker{id: "w2"}},
		})
	if got != want {
		t.Errorf("distributed-over-store CSV differs from single-process run:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	assertMergedOnce(t, dist, counts, nil)
	// One download per worker: each fetched once into its private cache.
	if gets != 2 {
		t.Errorf("%d artifact GETs, want 2 (one per worker)", gets)
	}
	for i, cache := range caches {
		if _, err := cache.Local.Resolve(d); err != nil {
			t.Errorf("worker %d cache does not hold the artifact after the run", i)
		}
	}
}

func TestArtifactDistributionSurvivesTornAndSlowTransfers(t *testing.T) {
	path, d, crc := publishArtifact(t, 20000)
	dist, ref := artifactChaosSpecs(path, d, crc)
	want := renderCSV(t, referenceRun(t, ref))

	// w1's first download tears mid-body (the retry must resume with a
	// Range request, and the spliced file must still verify); w2's
	// transfers crawl behind a throttle and a delay.
	got, counts, _, _ := runArtifactFleet(t,
		coord.Config{Job: dist, Shards: 3, LeaseTTL: 2 * time.Second},
		store.Static{d: path},
		[]artifactFleetWorker{
			{fleetWorker: fleetWorker{id: "w1", rules: []chaos.Rule{
				{Prefix: store.PathArtifacts, From: 1, Mode: chaos.Torn},
			}}},
			{fleetWorker: fleetWorker{id: "w2", rules: []chaos.Rule{
				{Prefix: store.PathArtifacts, From: 1, To: -1, Mode: chaos.Delay, Delay: 100 * time.Millisecond},
			}}, throttleBPS: 1 << 20},
		})
	if got != want {
		t.Errorf("CSV under torn/slow transfers differs:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	assertMergedOnce(t, dist, counts, nil)
}

func TestArtifactDistributionSurvivesDroppedTransfers(t *testing.T) {
	path, d, crc := publishArtifact(t, 20000)
	dist, ref := artifactChaosSpecs(path, d, crc)
	want := renderCSV(t, referenceRun(t, ref))

	// Both workers lose their first two download attempts outright; the
	// store client's backoff retries carry them through.
	rules := []chaos.Rule{{Prefix: store.PathArtifacts, From: 1, To: 2, Mode: chaos.Drop}}
	got, counts, _, _ := runArtifactFleet(t,
		coord.Config{Job: dist, Shards: 3, LeaseTTL: 2 * time.Second},
		store.Static{d: path},
		[]artifactFleetWorker{
			{fleetWorker: fleetWorker{id: "w1", rules: rules}},
			{fleetWorker: fleetWorker{id: "w2", rules: rules}},
		})
	if got != want {
		t.Errorf("CSV under dropped transfers differs:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	assertMergedOnce(t, dist, counts, nil)
}

func TestArtifactDistributionSurvivesWorkerKilledMidFetch(t *testing.T) {
	path, d, crc := publishArtifact(t, 20000)
	dist, ref := artifactChaosSpecs(path, d, crc)
	want := renderCSV(t, referenceRun(t, ref))

	// w1 dies the instant it touches the artifact endpoint — before it
	// ever leases a shard. The grid must complete entirely on w2, and
	// w1's cache directory must hold no committed object.
	got, counts, _, caches := runArtifactFleet(t,
		coord.Config{
			Job: dist, Shards: 3,
			LeaseTTL: 300 * time.Millisecond, Heartbeat: 60 * time.Millisecond,
			RetryBase: 50 * time.Millisecond, RetryMax: 500 * time.Millisecond,
		},
		store.Static{d: path},
		[]artifactFleetWorker{
			{fleetWorker: fleetWorker{id: "w1", kill: true, rules: []chaos.Rule{
				{Prefix: store.PathArtifacts, From: 1, To: -1, Mode: chaos.Down},
			}}},
			{fleetWorker: fleetWorker{id: "w2"}},
		})
	if got != want {
		t.Errorf("CSV after worker killed mid-fetch differs:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	assertMergedOnce(t, dist, counts, nil)
	if _, err := caches[0].Local.Resolve(d); err == nil {
		t.Error("killed worker's cache committed an object it never verified")
	}
}

// TestWorkerRefetchesDamagedArtifact damages a cached artifact twice:
// in the same process (a header byte) and in the next one, over the same
// directory (deep in the record body). Each time the worker's pre-open
// hash must catch it and cost exactly one refetch, and the run must
// still match the single-process reference. A spec whose CRC disagrees
// with its digest's bytes must fail without refetching.
func TestWorkerRefetchesDamagedArtifact(t *testing.T) {
	path, d, crc := publishArtifact(t, 5000)
	dist, ref := artifactChaosSpecs(path, d, crc)
	want := renderCSV(t, referenceRun(t, ref))

	var gets atomic.Int64
	h := &store.Handler{Source: store.Static{d: path}}
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			gets.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	defer origin.Close()
	dir := t.TempDir()
	openCache := func(t *testing.T) *backend.Tiered {
		local, err := store.OpenFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return backend.NewTiered(local, &backend.HTTP{Base: origin.URL, Logf: t.Logf})
	}
	run := func(t *testing.T, cache *backend.Tiered, spec coord.JobSpec) (string, error) {
		c, err := coord.New(coord.Config{Job: spec, Shards: 2, LeaseTTL: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(c.Handler())
		defer srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		wait := startGrid(ctx, c, spec, sweep.Options{})
		w := &coord.Worker{ID: "w", Coordinator: srv.URL, Parallelism: 1, Artifacts: cache, Logf: t.Logf}
		if err := w.Run(ctx); err != nil {
			return "", err
		}
		return renderCSV(t, mustFinish(t, wait)), nil
	}
	damage := func(cache *backend.Tiered, at func(n int) int) {
		p, err := cache.Local.Resolve(d)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		buf[at(len(buf))] ^= 0xFF
		if err := os.WriteFile(p, buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// step runs the grid over cache as a subtest and reports whether it
	// passed; each step builds on the cache state the previous one left.
	step := func(name string, cache *backend.Tiered, wantGets int64) bool {
		return t.Run(name, func(t *testing.T) {
			got, err := run(t, cache, dist)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("CSV differs from single-process run:\n--- got ---\n%s--- want ---\n%s", got, want)
			}
			if n := gets.Load(); n != wantGets {
				t.Fatalf("%d artifact GETs in total, want %d", n, wantGets)
			}
		})
	}

	cache := openCache(t)
	if !step("cold run", cache, 1) {
		return
	}
	damage(cache, func(int) int { return 12 })
	if !step("header damaged in the same process", cache, 2) {
		return
	}
	damage(cache, func(n int) int { return n - 3 })
	if !step("body damaged before a restart", openCache(t), 3) {
		return
	}
	t.Run("stale spec CRC", func(t *testing.T) {
		stale := dist
		stale.ArtifactCRC = crc ^ 1
		_, err := run(t, openCache(t), stale)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%08x", crc^1)) || !strings.Contains(err.Error(), fmt.Sprintf("%08x", crc)) {
			t.Fatalf("%v, want an error naming %08x and %08x", err, crc^1, crc)
		}
		if n := gets.Load(); n != 3 {
			t.Fatalf("refetched: %d artifact GETs in total, want 3", n)
		}
	})
}

func TestWorkerWithoutCacheRejectsDigestJob(t *testing.T) {
	path, d, crc := publishArtifact(t, 5000)
	dist, _ := artifactChaosSpecs(path, d, crc)
	if err := dist.Validate(); err != nil {
		t.Fatal(err)
	}
	// MaterializeArena on an unresolved digest-only spec must fail loudly,
	// not fall back to a synthetic workload.
	if _, _, _, err := dist.MaterializeArena(context.Background()); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("MaterializeArena on digest-only spec: %v", err)
	}
}
