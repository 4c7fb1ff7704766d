package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"mlcache/internal/retry"
	"mlcache/internal/store"
	"mlcache/internal/store/backend"
	"mlcache/internal/sweep"
	"mlcache/internal/trace"
)

// Worker joins a coordinator, builds the job's runner locally, and loops:
// lease a shard, simulate it (streaming completed points with every
// heartbeat), upload the full shard, repeat until the coordinator reports
// the grid done. Every request retries transport faults, torn responses
// and the statuses retry.Transient lists, under postPolicy; a lease revoked
// mid-shard (heartbeat Cancel) abandons the shard without losing the
// points already streamed. A worker whose context ends mid-shard sends
// one last heartbeat, unretried and bounded to a second, that hands over
// the points it finished. The coordinator's local fallback is a Worker
// too, running in-process under LocalWorkerID.
type Worker struct {
	// ID names the worker to the coordinator; it must be unique in the
	// fleet (exclusion and lease bookkeeping key on it).
	ID string
	// Coordinator is the base URL, e.g. "http://10.0.0.1:9191".
	Coordinator string
	// Client issues the HTTP requests; nil means http.DefaultClient. The
	// chaos harness injects faults here.
	Client *http.Client
	// Parallelism bounds the shard simulation pool (0 = GOMAXPROCS).
	Parallelism int
	// Artifacts is the artifact cache backing jobs whose spec names the
	// trace by digest: a local FileStore tier filled from the
	// coordinator's /artifacts/ endpoint (backend.HTTP) or straight from
	// a bucket. A nil cache limits the worker to path- or synthetic-trace
	// jobs.
	Artifacts *backend.Tiered
	// Logf receives operational events; nil means silent.
	Logf func(format string, args ...any)

	rngOnce sync.Once
	rngMu   sync.Mutex
	rng     *rand.Rand
}

// postPolicy bounds each request to the coordinator; when a request is
// still failing after the budget the worker gives up and Run returns the
// error — from the coordinator's side it died, and its shards are
// reassigned.
var postPolicy = retry.Policy{Attempts: 9, Base: 50 * time.Millisecond}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// jitter returns a random duration in [0, d). The PRNG is seeded from the
// worker ID so a fixed fleet layout retries on a fixed schedule — part of
// what makes the chaos tests deterministic.
func (w *Worker) jitter(d time.Duration) time.Duration {
	w.rngOnce.Do(func() {
		h := fnv.New64a()
		io.WriteString(h, w.ID)
		w.rng = rand.New(rand.NewSource(int64(h.Sum64())))
	})
	if d <= 0 {
		return 0
	}
	w.rngMu.Lock()
	defer w.rngMu.Unlock()
	return time.Duration(w.rng.Int63n(int64(d)))
}

// Run participates until the grid is done (nil), ctx is cancelled, or the
// coordinator is unreachable past the retry budget.
func (w *Worker) Run(ctx context.Context) error {
	if w.ID == "" || w.Coordinator == "" {
		return fmt.Errorf("coord: worker needs ID and Coordinator")
	}
	var reg RegisterResponse
	if err := w.post(ctx, PathRegister, RegisterRequest{Worker: w.ID}, &reg); err != nil {
		return fmt.Errorf("coord: register: %w", err)
	}
	if reg.Version != ProtocolVersion {
		return fmt.Errorf("coord: coordinator speaks protocol v%d, this worker v%d", reg.Version, ProtocolVersion)
	}
	runner, traceSkipped, cleanup, err := w.buildRunner(ctx, reg.Job)
	if err != nil {
		return fmt.Errorf("coord: building runner from job spec: %w", err)
	}
	defer cleanup()
	all := reg.Job.Points()
	w.logf("worker %s: joined %s: %d grid points in %d shards", w.ID, w.Coordinator, len(all), reg.Shards)

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var lr LeaseResponse
		if err := w.post(ctx, PathLease, LeaseRequest{Worker: w.ID}, &lr); err != nil {
			return fmt.Errorf("coord: lease: %w", err)
		}
		switch {
		case lr.Done:
			w.logf("worker %s: grid done", w.ID)
			return nil
		case lr.WaitMS > 0:
			wait := time.Duration(lr.WaitMS) * time.Millisecond
			if wait > time.Second {
				wait = time.Second
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(wait):
			}
		default:
			gridDone, err := w.runShard(ctx, runner, all, lr, reg, traceSkipped)
			if err != nil {
				return err
			}
			if gridDone {
				w.logf("worker %s: grid done", w.ID)
				return nil
			}
		}
	}
}

// buildRunner constructs the job's sweep runner. A spec that names its
// trace by digest resolves through the worker's artifact cache, pinned
// against eviction for the life of the run, unless the spec's TracePath
// hint already exists locally (shared-filesystem deployments skip the
// transfer). All other specs load through JobSpec.MaterializeArena.
func (w *Worker) buildRunner(ctx context.Context, job JobSpec) (sweep.Runner, int64, func(), error) {
	d := job.Digest()
	if !d.IsZero() && job.TracePath != "" {
		if _, err := os.Stat(job.TracePath); err == nil {
			d = store.Digest{} // local hint wins; no transfer needed
		}
	}
	if d.IsZero() {
		arena, closer, skipped, err := job.MaterializeArena(ctx)
		if err != nil {
			return sweep.Runner{}, 0, nil, err
		}
		return job.RunnerFor(arena), skipped, func() { closer.Close() }, nil
	}
	if w.Artifacts == nil {
		return sweep.Runner{}, 0, nil, fmt.Errorf("job trace is content-addressed (%s) but this worker has no artifact cache; run it with one", d)
	}
	w.Artifacts.Pin(d)
	art, err := w.openArtifact(ctx, d, job.ArtifactCRC)
	if err != nil {
		w.Artifacts.Unpin(d)
		return sweep.Runner{}, 0, nil, fmt.Errorf("fetching artifact %s: %w", d, err)
	}
	return job.RunnerFor(job.capRefs(art.Arena())), 0, func() {
		art.Close()
		w.Artifacts.Unpin(d)
	}, nil
}

// openArtifact maps the cached copy of d, filling it on a miss. The
// committed copy is hashed before it is mapped: bytes that rotted on
// disk since their verified commit are deleted and refetched, at most
// twice. A spec whose CRC disagrees with its own digest's bytes fails
// at once, since refetching the same digest cannot change them.
func (w *Worker) openArtifact(ctx context.Context, d store.Digest, wantCRC uint32) (*trace.Artifact, error) {
	for refetches := 0; ; refetches++ {
		path, err := w.Artifacts.ResolveContext(ctx, d)
		if err != nil {
			return nil, err
		}
		got, _, err := store.DigestFile(path)
		if err != nil {
			return nil, err
		}
		if got != d {
			if refetches == 2 {
				return nil, fmt.Errorf("cached copy hashes to %s after %d refetches: %w", got, refetches, store.ErrDigestMismatch)
			}
			w.logf("worker %s: cached %s hashes to %s; refetching", w.ID, d, got)
			if err := w.Artifacts.Local.Delete(d); err != nil && !errors.Is(err, os.ErrNotExist) {
				return nil, err
			}
			continue
		}
		art, err := trace.OpenArtifact(path)
		if err != nil {
			return nil, err
		}
		if wantCRC != 0 && art.Checksum() != wantCRC {
			art.Close()
			return nil, fmt.Errorf("job spec says artifact CRC-32C %08x but the bytes of %s carry %08x", wantCRC, d, art.Checksum())
		}
		return art, nil
	}
}

// runShard simulates one leased shard. Completed points stream to the
// coordinator with every heartbeat (cumulatively, so lost beats cost
// nothing); the final upload carries the full shard, failed points with
// their errors. Returns a nil error when the shard was finished or
// abandoned (lease revoked) — only an unreachable coordinator or
// cancelled ctx is an error — and gridDone when the upload completed the
// whole grid.
func (w *Worker) runShard(ctx context.Context, runner sweep.Runner, all []sweep.Point, lr LeaseResponse, reg RegisterResponse, traceSkipped int64) (gridDone bool, _ error) {
	shardPts := sweep.Shard(all, lr.Shard, lr.Shards)
	index := map[sweep.Point]int{}
	for j, pt := range shardPts {
		index[pt] = lr.Shard + j*lr.Shards
	}
	w.logf("worker %s: shard %d/%d: %d points", w.ID, lr.Shard, lr.Shards, len(shardPts))

	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var mu sync.Mutex
	var done []PointResult
	snapshot := func() []PointResult {
		mu.Lock()
		defer mu.Unlock()
		return append([]PointResult(nil), done...)
	}

	// Heartbeat loop: renew the lease and stream results. A single failed
	// beat is not retried — the next tick is the retry — and several beats
	// fit in one lease TTL, so only sustained loss forfeits the lease.
	hbStop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		interval := time.Duration(reg.HeartbeatMS) * time.Millisecond
		if interval <= 0 {
			interval = 2 * time.Second
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-sctx.Done():
				return
			case <-t.C:
				var resp HeartbeatResponse
				err := w.postOnce(sctx, PathHeartbeat, HeartbeatRequest{
					Worker: w.ID, Shard: lr.Shard, Lease: lr.Lease,
					Done: snapshot(), TraceSkipped: traceSkipped,
				}, &resp)
				if err == nil && resp.Cancel {
					w.logf("worker %s: shard %d lease revoked; abandoning", w.ID, lr.Shard)
					cancel()
					return
				}
			}
		}
	}()

	runner.Parallelism = w.Parallelism
	opts := sweep.Options{
		OnResult: func(r sweep.Result) {
			mu.Lock()
			done = append(done, PointResult{Index: index[r.Point], Run: r.Run})
			mu.Unlock()
		},
	}
	results, runErr := runner.RunContext(sctx, shardPts, opts)
	close(hbStop)
	hbWG.Wait()

	if ctx.Err() != nil {
		// Stopped: hand over the finished points. An unreachable
		// coordinator must not hold up the stop, so the beat is sent once,
		// with a short bound.
		fctx, stop := context.WithTimeout(context.WithoutCancel(ctx), time.Second)
		defer stop()
		_ = w.postOnce(fctx, PathHeartbeat, HeartbeatRequest{
			Worker: w.ID, Shard: lr.Shard, Lease: lr.Lease,
			Done: snapshot(), TraceSkipped: traceSkipped,
		}, &HeartbeatResponse{})
		return false, ctx.Err()
	}
	if sctx.Err() != nil && runErr != nil {
		// Lease revoked mid-simulation: the points already completed were
		// streamed; the rest belong to whoever holds the shard now.
		return false, nil
	}
	// A failed point is final: the engine is deterministic, so any worker
	// would fail it the same way.
	up := snapshot()
	for _, r := range results {
		if r.Err != nil {
			up = append(up, PointResult{Index: index[r.Point], Err: r.Err.Error()})
		}
	}
	var cr CompleteResponse
	if err := w.post(ctx, PathComplete, CompleteRequest{
		Worker: w.ID, Shard: lr.Shard, Lease: lr.Lease,
		Results: up, TraceSkipped: traceSkipped,
	}, &cr); err != nil {
		return false, fmt.Errorf("coord: complete shard %d: %w", lr.Shard, err)
	}
	w.logf("worker %s: shard %d complete", w.ID, lr.Shard)
	return cr.Done, nil
}

// post sends one JSON request under postPolicy, with jitter in
// [0, wait/2) on each wait.
func (w *Worker) post(ctx context.Context, path string, req, resp any) error {
	p := postPolicy
	p.Jitter = func(d time.Duration) time.Duration { return w.jitter(d / 2) }
	return retry.Do(ctx, p, func() error { return w.postOnce(ctx, path, req, resp) })
}

// postOnce is a single request/response exchange. A response that cannot
// be decoded — torn mid-body, truncated JSON — is a retryable error like
// any transport fault; the protocol's idempotency makes the retry safe.
// A status that retry.Transient does not list is permanent.
func (w *Worker) postOnce(ctx context.Context, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return retry.Permanent(err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return retry.Permanent(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	client := w.Client
	if client == nil {
		client = http.DefaultClient
	}
	hresp, err := client.Do(hreq)
	if err != nil {
		return err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 4096))
		err := fmt.Errorf("%s: %s: %s", path, hresp.Status, bytes.TrimSpace(msg))
		if !retry.Transient(hresp.StatusCode) {
			return retry.Permanent(err)
		}
		return err
	}
	if err := json.NewDecoder(hresp.Body).Decode(resp); err != nil {
		return fmt.Errorf("%s: decoding response: %w", path, err)
	}
	return nil
}
