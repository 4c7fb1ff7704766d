package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"time"

	"mlcache/internal/sweep"
)

// LocalWorkerID is the worker name of the coordinator's local fallback:
// the Worker it runs in-process when no other worker is active.
const LocalWorkerID = "_local"

// minWait is the shortest wait a lease response asks a worker for.
const minWait = 25 * time.Millisecond

// Config tunes the coordinator. The zero value of every field gets a
// sensible default from New; only Job is required.
type Config struct {
	Job JobSpec
	// Shards is how many strided partitions the grid is leased out in;
	// more shards than workers keeps slow workers from stalling the tail.
	// Defaults to min(8, number of grid points).
	Shards int
	// LeaseTTL is how long a lease survives without a heartbeat before
	// the shard is reassigned (default 10s). Heartbeat is the interval
	// advertised to workers (default LeaseTTL/5, so several lost beats
	// are needed to forfeit a lease).
	LeaseTTL  time.Duration
	Heartbeat time.Duration
	// RetryBase is the backoff before a failed shard's first retry,
	// doubling per attempt with jitter, capped at RetryMax (defaults
	// 250ms / 15s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// SpeculateAfter is how long a shard may stay leased before an idle
	// worker is handed a speculative duplicate lease (straggler
	// re-execution; first writer wins). Default 2×LeaseTTL; negative
	// disables speculation.
	SpeculateAfter time.Duration
	// LocalFallbackAfter degrades to in-process execution: if the grid is
	// unfinished and no worker has registered, heartbeat, or completed
	// anything for this long, the coordinator runs a Worker in-process
	// under LocalWorkerID, talking to Handler through memory. Its traffic
	// never counts as worker activity; a start that fails does, so starts
	// come at most once per LocalFallbackAfter. 0 disables the fallback.
	LocalFallbackAfter time.Duration
	// LocalParallelism is the fallback Worker's Parallelism
	// (0 = GOMAXPROCS).
	LocalParallelism int
	// Logf receives operational events (lease grants, expiries, retries);
	// nil means silent.
	Logf func(format string, args ...any)
}

type lease struct {
	worker   string
	token    uint64
	issued   time.Time
	deadline time.Time
}

type shardState struct {
	id      int
	indices []int
	left    int // indices still missing a result
	done    bool
	// leases holds the active grants: at most one primary plus one
	// speculative duplicate.
	leases []lease
	// excluded workers let a lease of this shard expire and are retried
	// only when no other live worker can take it.
	excluded map[string]bool
	// history records every worker ever granted this shard, so a late
	// upload from an expired lease is still accepted (its results are
	// deterministic, and rejecting them would waste finished work).
	history   map[string]bool
	attempts  int
	notBefore time.Time
}

type workerInfo struct {
	lastSeen     time.Time
	traceSkipped int64
}

// Coordinator owns a grid's distribution state: shard leases, merged
// results, worker liveness, and the retry machinery. RunContext runs the
// grid; Handler serves the workers. All methods are safe for concurrent
// use.
type Coordinator struct {
	cfg Config
	pts []sweep.Point
	now func() time.Time // injectable clock for tests

	mu           sync.Mutex
	started      bool // RunContext has applied its Skip; leases may be granted
	onResult     func(sweep.Result)
	shards       []*shardState
	have         []bool         // the point is merged or skipped
	results      []sweep.Result // each point's merged Run or Err, or Skipped
	workers      map[string]*workerInfo
	remaining    int // shards not yet done
	leaseSeq     uint64
	rng          *rand.Rand
	lastActivity time.Time
	localRunning bool

	doneOnce sync.Once
	doneCh   chan struct{}
}

// New validates the job and builds a coordinator with the grid fully
// partitioned. It grants no lease until RunContext starts.
func New(cfg Config) (*Coordinator, error) {
	if err := cfg.Job.Validate(); err != nil {
		return nil, err
	}
	pts := cfg.Job.Points()
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if cfg.Shards > len(pts) {
		cfg.Shards = len(pts)
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = cfg.LeaseTTL / 5
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 250 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 15 * time.Second
	}
	if cfg.SpeculateAfter == 0 {
		cfg.SpeculateAfter = 2 * cfg.LeaseTTL
	}
	c := &Coordinator{
		cfg:     cfg,
		pts:     pts,
		now:     time.Now,
		have:    make([]bool, len(pts)),
		results: make([]sweep.Result, len(pts)),
		workers: map[string]*workerInfo{},
		rng:     rand.New(rand.NewSource(1)), // deterministic retry jitter
		doneCh:  make(chan struct{}),
	}
	for i, pt := range pts {
		c.results[i].Point = pt
	}
	for s := 0; s < cfg.Shards; s++ {
		st := &shardState{id: s, excluded: map[string]bool{}, history: map[string]bool{}}
		for i := s; i < len(pts); i += cfg.Shards {
			st.indices = append(st.indices, i)
		}
		st.left = len(st.indices)
		c.shards = append(c.shards, st)
	}
	c.remaining = len(c.shards)
	return c, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// touchLocked records worker liveness; any worker contact defers the local
// fallback.
func (c *Coordinator) touchLocked(worker string, now time.Time) *workerInfo {
	w := c.workers[worker]
	if w == nil {
		w = &workerInfo{}
		c.workers[worker] = w
	}
	w.lastSeen = now
	if worker != LocalWorkerID {
		c.lastActivity = now
	}
	return w
}

// markDoneLocked retires a finished shard, revoking its outstanding leases
// (their holders see Cancel on the next heartbeat).
func (c *Coordinator) markDoneLocked(sh *shardState) {
	if sh.done {
		return
	}
	sh.done = true
	sh.leases = nil
	c.remaining--
	if c.remaining == 0 {
		c.doneOnce.Do(func() { close(c.doneCh) })
	}
}

// backoffLocked computes the capped exponential retry delay with jitter
// for a shard entering its attempt-th retry.
func (c *Coordinator) backoffLocked(attempts int) time.Duration {
	d := c.cfg.RetryBase
	for i := 1; i < attempts && d < c.cfg.RetryMax; i++ {
		d *= 2
	}
	if d > c.cfg.RetryMax {
		d = c.cfg.RetryMax
	}
	// Up to 50% jitter keeps retried shards from thundering back in sync.
	return d + time.Duration(c.rng.Int63n(int64(d/2)+1))
}

// expireLocked sweeps lease deadlines and relaxes exclusions that would
// otherwise deadlock a shard (every live worker excluded). A shard whose
// lease expired goes back to pending behind a backoff gate, and the
// worker that lost it is excluded from the retry so the shard lands
// elsewhere.
func (c *Coordinator) expireLocked(now time.Time) {
	for _, sh := range c.shards {
		if sh.done {
			continue
		}
		kept := sh.leases[:0]
		for _, l := range sh.leases {
			if l.deadline.After(now) {
				kept = append(kept, l)
				continue
			}
			sh.excluded[l.worker] = true
			sh.attempts++
			sh.notBefore = now.Add(c.backoffLocked(sh.attempts))
			c.logf("coord: shard %d lost by %s (lease expired); retry %d after %s",
				sh.id, l.worker, sh.attempts, sh.notBefore.Sub(now).Round(time.Millisecond))
		}
		sh.leases = kept
		if len(sh.leases) == 0 && len(sh.excluded) > 0 && !c.anyEligibleWorkerLocked(sh, now) {
			c.logf("coord: shard %d: every live worker excluded; clearing exclusions", sh.id)
			sh.excluded = map[string]bool{}
		}
	}
}

// anyEligibleWorkerLocked reports whether some live, non-excluded worker
// could still take the shard.
func (c *Coordinator) anyEligibleWorkerLocked(sh *shardState, now time.Time) bool {
	horizon := now.Add(-2 * c.cfg.LeaseTTL)
	for name, w := range c.workers {
		if w.lastSeen.After(horizon) && !sh.excluded[name] {
			return true
		}
	}
	return false
}

// Register handles a worker announcement.
func (c *Coordinator) Register(req RegisterRequest) (RegisterResponse, error) {
	if req.Worker == "" {
		return RegisterResponse{}, &httpError{http.StatusBadRequest, "worker name required"}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.touchLocked(req.Worker, now)
	c.logf("coord: worker %s registered", req.Worker)
	return RegisterResponse{
		Version:     ProtocolVersion,
		Job:         c.cfg.Job,
		Shards:      c.cfg.Shards,
		LeaseTTLMS:  c.cfg.LeaseTTL.Milliseconds(),
		HeartbeatMS: c.cfg.Heartbeat.Milliseconds(),
	}, nil
}

// Lease hands the worker a shard (or an outstanding lease it already
// holds — lease requests are idempotent so a lost response is retried
// safely), tells it to wait, or reports the grid done.
func (c *Coordinator) Lease(req LeaseRequest) (LeaseResponse, error) {
	if req.Worker == "" {
		return LeaseResponse{}, &httpError{http.StatusBadRequest, "worker name required"}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.touchLocked(req.Worker, now)
	c.expireLocked(now)
	return c.grantLocked(req.Worker, now), nil
}

func (c *Coordinator) grantLocked(worker string, now time.Time) LeaseResponse {
	// Until RunContext has applied its Skip, a shard may hold only points
	// that must not be simulated.
	if !c.started {
		return LeaseResponse{WaitMS: minWait.Milliseconds()}
	}
	// An outstanding lease is re-granted verbatim: the worker asking again
	// means it never saw (or lost) the response.
	for _, sh := range c.shards {
		if sh.done {
			continue
		}
		for i := range sh.leases {
			if sh.leases[i].worker == worker {
				sh.leases[i].deadline = now.Add(c.cfg.LeaseTTL)
				return LeaseResponse{Shard: sh.id, Shards: c.cfg.Shards, Lease: sh.leases[i].token}
			}
		}
	}
	if c.remaining == 0 {
		return LeaseResponse{Done: true}
	}

	grant := func(sh *shardState, why string) LeaseResponse {
		c.leaseSeq++
		l := lease{worker: worker, token: c.leaseSeq, issued: now, deadline: now.Add(c.cfg.LeaseTTL)}
		sh.leases = append(sh.leases, l)
		sh.history[worker] = true
		c.logf("coord: shard %d leased to %s (%s, token %d)", sh.id, worker, why, l.token)
		return LeaseResponse{Shard: sh.id, Shards: c.cfg.Shards, Lease: l.token}
	}

	// Pending shards first, skipping workers that already failed them.
	var firstPending *shardState
	for _, sh := range c.shards {
		if sh.done || len(sh.leases) > 0 || now.Before(sh.notBefore) {
			continue
		}
		if firstPending == nil {
			firstPending = sh
		}
		if !sh.excluded[worker] {
			return grant(sh, "pending")
		}
	}
	// A pending shard whose only volunteers are excluded workers: better a
	// retry on a suspect worker than a stalled grid.
	if firstPending != nil && !c.anyEligibleWorkerLocked(firstPending, now) {
		return grant(firstPending, "exclusion relaxed")
	}

	// Speculative re-execution: duplicate the longest-running single lease
	// onto this idle worker; the engine's determinism makes the race
	// harmless and first writer wins.
	if c.cfg.SpeculateAfter >= 0 {
		var victim *shardState
		for _, sh := range c.shards {
			if sh.done || len(sh.leases) != 1 || sh.leases[0].worker == worker || sh.excluded[worker] {
				continue
			}
			if now.Sub(sh.leases[0].issued) < c.cfg.SpeculateAfter {
				continue
			}
			if victim == nil || sh.leases[0].issued.Before(victim.leases[0].issued) {
				victim = sh
			}
		}
		if victim != nil {
			return grant(victim, "speculative")
		}
	}

	// Nothing grantable: wait out the earliest backoff gate (or one
	// heartbeat if the blockers are active leases).
	wait := c.cfg.Heartbeat
	for _, sh := range c.shards {
		if sh.done || len(sh.leases) > 0 {
			continue
		}
		if d := sh.notBefore.Sub(now); d > 0 && d < wait {
			wait = d
		}
	}
	if wait < minWait {
		wait = minWait
	}
	return LeaseResponse{WaitMS: wait.Milliseconds()}
}

// absorbLocked merges point results first-writer-wins. Indices outside the
// shard's stride are rejected (a confused worker cannot corrupt other
// shards); duplicates are ignored, which is what makes retransmission,
// speculation, and late uploads all safe. A failed point is merged with
// its error and, as in a local sweep, never reaches onResult.
func (c *Coordinator) absorbLocked(sh *shardState, results []PointResult) {
	for _, pr := range results {
		if pr.Index < 0 || pr.Index >= len(c.pts) || pr.Index%c.cfg.Shards != sh.id {
			c.logf("coord: shard %d: discarding result for out-of-shard index %d", sh.id, pr.Index)
			continue
		}
		if c.have[pr.Index] {
			continue
		}
		c.have[pr.Index] = true
		sh.left--
		res := &c.results[pr.Index]
		if pr.Err != "" {
			res.Err = errors.New(pr.Err)
			continue
		}
		res.Run = pr.Run
		if c.onResult != nil {
			c.onResult(*res)
		}
	}
	if sh.left == 0 {
		c.markDoneLocked(sh)
	}
}

func (c *Coordinator) shard(id int) (*shardState, error) {
	if id < 0 || id >= len(c.shards) {
		return nil, &httpError{http.StatusBadRequest, fmt.Sprintf("no shard %d", id)}
	}
	return c.shards[id], nil
}

// Heartbeat renews a lease and merges the worker's completed points so
// far. Cancel in the response tells the worker its lease is gone (expired,
// or the shard finished elsewhere) and the shard should be abandoned.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	w := c.touchLocked(req.Worker, now)
	if req.TraceSkipped > w.traceSkipped {
		w.traceSkipped = req.TraceSkipped
		c.logf("coord: worker %s reports %d corrupt trace record(s) skipped", req.Worker, req.TraceSkipped)
	}
	sh, err := c.shard(req.Shard)
	if err != nil {
		return HeartbeatResponse{}, err
	}
	c.expireLocked(now)
	held := false
	for i := range sh.leases {
		if sh.leases[i].worker == req.Worker && sh.leases[i].token == req.Lease {
			sh.leases[i].deadline = now.Add(c.cfg.LeaseTTL)
			held = true
			break
		}
	}
	// Results are merged even from a stale lease: the work is done and
	// deterministic, and first-writer-wins dedup keeps it safe. But only a
	// worker that was at some point granted this shard may contribute.
	if sh.history[req.Worker] {
		c.absorbLocked(sh, req.Done)
	}
	return HeartbeatResponse{Cancel: !held || sh.done}, nil
}

// Complete uploads a finished shard. Like heartbeats it is idempotent and
// lease-staleness-tolerant: the upload is judged by its results, not by
// whether the lease is still current.
func (c *Coordinator) Complete(req CompleteRequest) (CompleteResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	w := c.touchLocked(req.Worker, now)
	if req.TraceSkipped > w.traceSkipped {
		w.traceSkipped = req.TraceSkipped
	}
	sh, err := c.shard(req.Shard)
	if err != nil {
		return CompleteResponse{}, err
	}
	if !sh.history[req.Worker] {
		return CompleteResponse{}, &httpError{http.StatusConflict,
			fmt.Sprintf("worker %s was never leased shard %d", req.Worker, req.Shard)}
	}
	c.absorbLocked(sh, req.Results)
	// Drop the worker's lease: the shard is either done or (an incomplete
	// upload) back in play for someone else.
	kept := sh.leases[:0]
	for _, l := range sh.leases {
		if l.worker != req.Worker {
			kept = append(kept, l)
		}
	}
	sh.leases = kept
	if !sh.done && sh.left > 0 {
		c.logf("coord: shard %d: complete from %s left %d point(s) unfilled", sh.id, req.Worker, sh.left)
	}
	return CompleteResponse{OK: true, Done: c.remaining == 0}, nil
}

// RunContext runs pts, which must be the job's grid (Job.Points()), on
// the coordinator's workers and returns a result for every point in grid
// order, like sweep.Runner.RunContext. Serve Handler concurrently;
// RunContext owns no listener. Until it has applied opts.Skip, every lease
// request is told to wait. A Coordinator runs its grid once.
//
// Points opts.Skip selects come back Skipped with no Run and are never
// merged; a shard made only of them is never leased. opts.OnResult is
// called once per newly merged point that a worker simulated, under the
// coordinator's lock, so calls are serialized. opts.PointTimeout does not
// apply.
//
// RunContext drives lease expiry, exclusion relaxation and the local
// fallback. It returns nil once every point is merged, a point a worker
// failed carrying that worker's error as its Err, or ctx.Err() on
// cancellation, which every point never merged then carries as its Err.
// It stops the fallback Worker and waits for it before returning, so the
// points the fallback finished before a cancellation reach opts.OnResult
// first.
func (c *Coordinator) RunContext(ctx context.Context, pts []sweep.Point, opts sweep.Options) ([]sweep.Result, error) {
	if !slices.Equal(pts, c.pts) {
		return nil, fmt.Errorf("coord: RunContext runs the job's grid of %d points, got %d other points", len(c.pts), len(pts))
	}
	if err := c.start(opts); err != nil {
		return nil, err
	}
	err := c.drive(ctx)

	c.mu.Lock()
	defer c.mu.Unlock()
	out := slices.Clone(c.results)
	for i := range out {
		if !c.have[i] {
			out[i].Err = err
		}
	}
	return out, err
}

// start applies opts.Skip and opts.OnResult and opens the grid to leases.
// A grid whose every point is skipped is born done.
func (c *Coordinator) start(opts sweep.Options) error {
	skip := make([]bool, len(c.pts))
	for i, pt := range c.pts {
		skip[i] = opts.Skip != nil && opts.Skip(pt)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return errors.New("coord: grid already run")
	}
	c.started = true
	c.onResult = opts.OnResult
	for i := range c.pts {
		if !skip[i] {
			continue
		}
		c.have[i], c.results[i].Skipped = true, true
		sh := c.shards[i%c.cfg.Shards]
		sh.left--
		if sh.left == 0 {
			c.markDoneLocked(sh)
		}
	}
	return nil
}

// drive ticks the coordinator's clock until every point is merged (nil)
// or ctx is cancelled (ctx.Err()). It stops the local fallback and waits
// for it before it returns.
func (c *Coordinator) drive(ctx context.Context) error {
	c.mu.Lock()
	if c.lastActivity.IsZero() {
		c.lastActivity = c.now()
	}
	c.mu.Unlock()

	localCtx, stopLocal := context.WithCancel(ctx)
	var local sync.WaitGroup
	defer func() {
		stopLocal()
		local.Wait()
	}()

	tick := c.cfg.LeaseTTL / 4
	if c.cfg.LocalFallbackAfter > 0 && c.cfg.LocalFallbackAfter/4 < tick {
		tick = c.cfg.LocalFallbackAfter / 4
	}
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-c.doneCh:
			return nil
		case <-t.C:
			c.mu.Lock()
			now := c.now()
			c.expireLocked(now)
			fallback := c.cfg.LocalFallbackAfter > 0 && !c.localRunning &&
				c.remaining > 0 && now.Sub(c.lastActivity) >= c.cfg.LocalFallbackAfter
			if fallback {
				c.localRunning = true
			}
			c.mu.Unlock()
			if fallback {
				c.logf("coord: no worker activity for %s; running remaining shards in-process", c.cfg.LocalFallbackAfter)
				local.Add(1)
				go func() {
					defer local.Done()
					c.localLoop(localCtx)
				}()
			}
		}
	}
}

// localLoop is the degraded mode: a Worker under LocalWorkerID that
// reaches the coordinator's own Handler through memory instead of a
// socket, so a grid with no live worker still finishes. A start that
// fails counts as worker activity, so the next one waits out another
// LocalFallbackAfter instead of following on the next tick.
func (c *Coordinator) localLoop(ctx context.Context) {
	w := &Worker{
		ID:          LocalWorkerID,
		Coordinator: "http://in-process",
		Client:      &http.Client{Transport: handlerTransport{c.Handler()}},
		Parallelism: c.cfg.LocalParallelism,
		Logf:        c.cfg.Logf,
	}
	err := w.Run(ctx)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.localRunning = false
	if err != nil && ctx.Err() == nil {
		c.logf("coord: local fallback: %v", err)
		c.lastActivity = c.now()
	}
}

// handlerTransport answers HTTP requests by calling a handler in process.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// TraceSkipped returns the largest corrupt-record skip count any worker
// reported — nonzero means some worker decoded a damaged trace copy.
func (c *Coordinator) TraceSkipped() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var max int64
	for _, w := range c.workers {
		if w.traceSkipped > max {
			max = w.traceSkipped
		}
	}
	return max
}

// httpError carries a status code through the handler plumbing.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathRegister, handleJSON(c.Register))
	mux.HandleFunc(PathLease, handleJSON(c.Lease))
	mux.HandleFunc(PathHeartbeat, handleJSON(c.Heartbeat))
	mux.HandleFunc(PathComplete, handleJSON(c.Complete))
	return mux
}

func handleJSON[Req, Resp any](fn func(Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req Req
		body := http.MaxBytesReader(w, r.Body, 256<<20)
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
			return
		}
		resp, err := fn(req)
		if err != nil {
			var he *httpError
			if errors.As(err, &he) {
				http.Error(w, he.msg, he.code)
			} else {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			// The response is already committed; nothing to salvage. The
			// client's JSON decode fails and it retries.
			return
		}
	}
}
