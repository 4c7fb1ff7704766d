// Package serve is the long-running sweep service: the step from the
// batch cmd/sweep CLI to a resident, multi-client server. Clients POST a
// coord.JobSpec (the same serializable description the distributed
// coordinator ships to workers) and receive per-point results streamed as
// NDJSON — or SSE for browser clients — in completion order, followed by a
// final record carrying the full sweep.WriteTable rendering, byte-identical
// to a single-process `sweep` run of the same grid.
//
// What makes the service worth being resident:
//
//   - One decode per workload: a refcounted, LRU-bounded ArenaCache
//     shares a single materialized trace.Arena across every concurrent
//     and subsequent job over the same workload (keyed by content, not
//     just path).
//   - No re-simulation: a per-point result cache keyed by (workload +
//     machine, point) serves repeated or overlapping grids from memory.
//
// Durability (Config.StateDir): every completed point and every accepted
// job is journaled to CRC'd, segment-rotated JSONL (internal/checkpoint)
// before its result line reaches the client. A restarted server replays
// the journal into the result cache and finishes interrupted jobs in the
// background (ResumeInterrupted), so even `kill -9` mid-grid costs zero
// recomputed points and the final table stays byte-identical.
//
// Multi-tenancy (Config.Tenants): API-key identity on /jobs, a per-tenant
// token bucket on admission, and a weighted fair queue for run slots, so
// one flooding client delays only itself. /metrics carries per-tenant
// labeled counters next to the global trajectory.
//
// Grid hosting (Server.Lease): the server answers a coord.Coordinator's
// lease endpoints and serves its trace artifact by digest, behind the same
// tenant keys. `sweep -serve` is this server with one leased grid.
//
// Robustness: the bounded fair queue answers overload with 429 + a
// jittered Retry-After instead of collapsing; a client disconnect cancels
// its job's context and frees the workers at the next batch boundary;
// Drain flips /healthz to 503 and rejects new jobs while in-flight grids
// finish (SIGTERM handling in cmd/mlcserve).
//
// Survivability (failure containment, DESIGN.md §15): a spec that
// deterministically crashes the process is quarantined as poisoned after
// Config.MaxJobAttempts interrupted attempts instead of crash-looping
// forever; an admission CostModel prices every job from its spec alone
// and refuses oversized ones with 413 before any journal write or arena
// materialization, with an aggregate in-flight byte gate (503) so
// admissible jobs cannot jointly OOM; JobSpec.DeadlineSec cancels runaway
// jobs cleanly; and every streaming write carries a deadline so a client
// that stops reading is disconnected instead of pinning an arena lease
// and blocking Drain.
package serve

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mlcache/internal/coord"
	"mlcache/internal/cpu"
	"mlcache/internal/experiments"
	"mlcache/internal/store"
	"mlcache/internal/store/backend"
	"mlcache/internal/sweep"
)

// Config tunes the server. The zero value of every field gets a sensible
// default from New.
type Config struct {
	// MaxJobs bounds concurrently running jobs (default 4). Each job uses
	// up to Parallelism workers, so total simulation threads are
	// MaxJobs × Parallelism.
	MaxJobs int
	// MaxQueue bounds jobs waiting for a run slot (default 16) — per
	// tenant, so one tenant's backlog cannot crowd others out of the
	// waiting room. Beyond it, submissions are rejected with 429 and a
	// jittered Retry-After estimate.
	MaxQueue int
	// Parallelism bounds each job's simulation workers (0 = GOMAXPROCS).
	Parallelism int
	// ArenaBudgetBytes bounds the workload cache (default 1 GiB); twice
	// it is the default in-flight admission budget (see Cost).
	ArenaBudgetBytes int64
	// ResultCachePoints bounds the per-point result cache (default 65536).
	ResultCachePoints int
	// StateDir, when non-empty, makes the server durable: per-point
	// results and job state are journaled there and replayed on restart.
	StateDir string
	// ArtifactDir, when non-empty, makes the server an artifact origin: a
	// content-addressed store directory served (and accepting publishes)
	// at /artifacts/, and the resolver for jobs that name their trace by
	// ArtifactDigest instead of a path. Tenant authentication, when
	// configured, covers the artifact endpoints too.
	ArtifactDir string
	// Artifacts, when non-nil, supplies the artifact store backend
	// directly — a backend.FS, or a backend.Tiered composing a local
	// persistent cache over a remote S3 tier — and takes precedence over
	// ArtifactDir. The backend must be serve-capable (implement
	// store.Resolver) because jobs mmap their artifacts from local paths;
	// a tiered backend satisfies this by verified read-through promotion.
	Artifacts backend.Store
	// JournalMaxBytes is the journal segment rotation threshold
	// (default 64 MiB).
	JournalMaxBytes int64
	// Tenants, when non-nil, turns on API-key authentication: /jobs
	// requires a configured key, and each tenant gets its own token
	// bucket, fair-queue weight, and metric labels. Nil means open
	// access as one anonymous tenant.
	Tenants *Tenants
	// AnonRatePerSec / AnonBurst quota the anonymous tenant when Tenants
	// is nil (0 = unlimited).
	AnonRatePerSec float64
	AnonBurst      int
	// MaxJobAttempts is how many times a journaled job may be found
	// interrupted before ResumeInterrupted quarantines it as poisoned
	// instead of re-running it (default 3). Only meaningful with StateDir.
	MaxJobAttempts int
	// Cost bounds what a single job may demand at admission (see
	// CostModel). Cost.MaxInflightBytes == 0 defaults to twice the arena
	// budget; negative disables the in-flight gate.
	Cost CostModel
	// MaxJobDeadline caps the DeadlineSec a submitted spec may request
	// (0 = no cap beyond coord.MaxDeadlineSec).
	MaxJobDeadline time.Duration
	// StreamWriteTimeout bounds each streaming write: a client that stops
	// reading for this long is disconnected and its job canceled
	// (default 60s; negative disables).
	StreamWriteTimeout time.Duration
	// FaultPoint is a test-only crash injection hook ("runjob:seed=N"
	// crashes the process when a synthetic job with that seed reaches
	// runJob, after the attempt-begin journal record). Empty disables.
	// It exists so the crash-loop quarantine path can be exercised by
	// real kill-and-restart tests; never set it in production.
	FaultPoint string
	// Logf receives operational events; nil means silent.
	Logf func(format string, args ...any)
}

func (c Config) maxJobs() int {
	if c.MaxJobs <= 0 {
		return 4
	}
	return c.MaxJobs
}

func (c Config) maxQueue() int {
	if c.MaxQueue <= 0 {
		return 16
	}
	return c.MaxQueue
}

func (c Config) maxJobAttempts() int {
	if c.MaxJobAttempts <= 0 {
		return 3
	}
	return c.MaxJobAttempts
}

func (c Config) streamWriteTimeout() time.Duration {
	if c.StreamWriteTimeout < 0 {
		return 0 // disabled
	}
	if c.StreamWriteTimeout == 0 {
		return 60 * time.Second
	}
	return c.StreamWriteTimeout
}

// maxInflightBytes resolves the aggregate admission budget: explicit wins,
// zero defaults to twice the arena budget (admitted work beyond that could
// not all be resident anyway), negative disables the gate.
func (c Config) maxInflightBytes() int64 {
	switch {
	case c.Cost.MaxInflightBytes > 0:
		return c.Cost.MaxInflightBytes
	case c.Cost.MaxInflightBytes < 0:
		return 0
	}
	return 2 * c.arenaBudget()
}

// arenaBudget resolves the arena budget: ArenaCache's own default of
// 1 GiB unless set.
func (c Config) arenaBudget() int64 {
	if c.ArenaBudgetBytes <= 0 {
		return 1 << 30
	}
	return c.ArenaBudgetBytes
}

// Server is the resident sweep service. Create with New, serve Handler
// (Listen), call Drain on shutdown (and Close once drained). Lease makes
// it host a coordinator's grid as well.
type Server struct {
	cfg       Config
	arenas    *ArenaCache
	results   *resultCache
	metrics   *metrics
	queue     *fairQueue
	durable   *durable
	artifacts backend.Store

	// grid answers the lease endpoints of the grid Lease hosts, and
	// gridTrace serves its trace artifact; both nil without one.
	grid      http.Handler
	gridTrace store.Static

	// artifactRoots is the live GC mark set: every digest a journaled or
	// submitted job spec referenced. Guarded by mu.
	artifactRoots map[store.Digest]bool

	// byName indexes the runtime tenants; sorted is the stable order for
	// /metrics and for key checks. anon is the single open-access tenant
	// when no tenant table is configured.
	byName map[string]*tenant
	sorted []*tenant
	anon   *tenant

	// gate caps the sum of estimated bytes across admitted jobs; fault is
	// the parsed test-only crash injection point.
	gate  *inflightGate
	fault FaultPoint

	mu       sync.Mutex
	draining bool
	jobSeq   int64
	pending  []pendingJob // journaled running jobs awaiting ResumeInterrupted

	// poisoned is the quarantine registry, keyed by specDigest: loaded
	// from journaled poisoned records at startup, extended when
	// ResumeInterrupted quarantines a crash-looping job. Submissions
	// matching a quarantined digest are refused with 422.
	poisonMu sync.Mutex
	poisoned map[string]jobRecord

	rngMu sync.Mutex
	rng   *rand.Rand
}

// pendingJob is one interrupted job recovered from the journal.
type pendingJob struct {
	id  int64
	rec jobRecord
}

// FaultPoint is a parsed test-only crash injection directive. The only
// supported form is "runjob:seed=N": crash the process (exit code 117)
// when a synthetic job with Seed N reaches runJob — after its
// attempt-begin journal record, exactly where a deterministic poison job
// would take the process down.
type FaultPoint struct {
	kind string // "" = disabled; "runjob"
	seed int64
}

// FaultExitCode is the process exit status of an injected crash, distinct
// from every real failure path so restart harnesses can assert on it.
const FaultExitCode = 117

// ParseFaultPoint parses a -fault-point directive ("" = disabled).
func ParseFaultPoint(s string) (FaultPoint, error) {
	if s == "" {
		return FaultPoint{}, nil
	}
	var seed int64
	if _, err := fmt.Sscanf(s, "runjob:seed=%d", &seed); err != nil {
		return FaultPoint{}, fmt.Errorf("serve: bad fault point %q (want runjob:seed=N)", s)
	}
	return FaultPoint{kind: "runjob", seed: seed}, nil
}

// matches reports whether running spec should trigger the injected crash.
func (f FaultPoint) matches(spec coord.JobSpec) bool {
	return f.kind == "runjob" && spec.TracePath == "" && spec.ArtifactDigest == "" && spec.Seed == f.seed
}

// New returns a ready Server. With Config.StateDir set it replays the
// journals: finished points land in the result cache in journal order
// (the points resident afterwards are counted by
// mlcserve_points_replayed_total) and interrupted jobs are queued for
// ResumeInterrupted.
func New(cfg Config) (*Server, error) {
	fault, err := ParseFaultPoint(cfg.FaultPoint)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		arenas:   NewArenaCache(cfg.ArenaBudgetBytes),
		results:  newResultCache(cfg.ResultCachePoints),
		metrics:  newMetrics(),
		byName:   map[string]*tenant{},
		fault:    fault,
		poisoned: map[string]jobRecord{},
		rng:      rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	s.gate = &inflightGate{max: cfg.maxInflightBytes(), gauge: &s.metrics.inflightBytes}
	s.queue = newFairQueue(cfg.maxJobs(), cfg.maxQueue(), &s.metrics.queueDepth)
	if cfg.Tenants != nil {
		for _, name := range cfg.Tenants.names {
			tc := cfg.Tenants.byName[name]
			tn := newTenant(*tc)
			s.byName[name] = tn
			s.sorted = append(s.sorted, tn)
		}
	} else {
		s.anon = newTenant(TenantConfig{
			Name: "anonymous", RatePerSec: cfg.AnonRatePerSec, Burst: cfg.AnonBurst,
		})
		s.byName[s.anon.name] = s.anon
		s.sorted = []*tenant{s.anon}
	}
	switch {
	case cfg.Artifacts != nil:
		s.artifacts = cfg.Artifacts
	case cfg.ArtifactDir != "":
		fs, err := store.OpenFileStore(cfg.ArtifactDir)
		if err != nil {
			return nil, err
		}
		s.artifacts = backend.NewFS(fs)
	}
	if cfg.StateDir != "" {
		start := time.Now()
		d, state, err := openDurable(cfg.StateDir, cfg.JournalMaxBytes)
		if err != nil {
			return nil, err
		}
		s.durable = d
		// Journal order, so that a journal holding more points than the
		// cache keeps its most recently journaled ones.
		decoded := 0
		for _, r := range state.results.Records {
			if r.Err != nil {
				s.logf("state: dropping unreadable result %s: %v", r.Key, r.Err)
				continue
			}
			s.results.putKey(r.Key, r.Value)
			decoded++
		}
		replayed := s.results.len()
		s.metrics.pointsReplayed.Store(int64(replayed))
		for _, r := range state.jobs.Records {
			seq, ok := parseJobKey(r.Key)
			if !ok {
				continue
			}
			if seq > s.jobSeq {
				s.jobSeq = seq
			}
			if r.Err != nil {
				continue
			}
			rec := r.Value
			if rec.Spec.ArtifactDigest != "" {
				if d, err := store.ParseDigest(rec.Spec.ArtifactDigest); err == nil {
					s.addArtifactRoot(d)
				}
			}
			switch rec.Status {
			case statusRunning:
				s.pending = append(s.pending, pendingJob{id: seq, rec: rec})
			case statusPoisoned:
				// Keyed by the digest of the decoded spec, as the submit
				// path computes it, not by the journaled SpecDigest: a
				// record may predate a field's removal from JobSpec, and
				// its stored digest then covers bytes no submission can
				// reproduce.
				s.poisoned[specDigest(rec.Spec)] = rec
			}
		}
		sort.Slice(s.pending, func(i, j int) bool { return s.pending[i].id < s.pending[j].id })
		took := time.Since(start)
		s.metrics.replayNS.Store(int64(took))
		if dropped := state.results.Dropped + state.jobs.Dropped; dropped > 0 {
			s.logf("state: dropped %d torn/corrupt journal records (expected after a crash)", dropped)
		}
		s.logf("state: replayed %d points in %d ms (%d more journaled points left out by the %d-point result cache), %d interrupted jobs pending, %d poisoned specs quarantined",
			replayed, took.Milliseconds(), decoded-replayed, s.results.max, len(s.pending), len(s.poisoned))
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Close releases the durable journals. Call after the HTTP server has
// shut down; a crash (the whole point of the journal) skips it harmlessly.
func (s *Server) Close() {
	if s.durable != nil {
		s.durable.close()
	}
}

// Handler returns the service's HTTP surface. /artifacts/ is mounted
// only on a server with an artifact store or a leased grid.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/jobs", s.handleJobs)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	if s.grid != nil {
		for _, p := range []string{coord.PathRegister, coord.PathLease, coord.PathHeartbeat, coord.PathComplete} {
			mux.Handle(p, s.requireTenant(s.grid))
		}
	}
	if s.artifacts != nil || s.gridTrace != nil {
		h := &store.Handler{Source: artifactSource{s.gridTrace, s.artifacts}, Logf: s.cfg.Logf}
		if s.artifacts != nil {
			h.Uploads = backend.Sink{B: s.artifacts}
		}
		mux.Handle(store.PathArtifacts, s.requireTenant(h))
	}
	return mux
}

// Lease makes the server host c's grid, job: Handler then answers the
// coordinator protocol's four endpoints for c and serves job's trace
// artifact by digest from the trace's own path, without copying it into
// a store. Both sit behind tenant auth. A server hosts one grid; call
// Lease before Handler.
func (s *Server) Lease(c *coord.Coordinator, job coord.JobSpec) {
	s.grid = c.Handler()
	if d := job.Digest(); !d.IsZero() {
		s.gridTrace = store.Static{d: job.TracePath}
	}
}

// artifactSource resolves /artifacts/ downloads: the leased grid's trace
// first, then the artifact store.
type artifactSource struct {
	trace store.Static
	store backend.Store
}

// Resolve implements store.Resolver.
func (a artifactSource) Resolve(d store.Digest) (string, error) {
	if p, err := a.trace.Resolve(d); err == nil || a.store == nil {
		return p, err
	}
	return a.store.Resolve(d)
}

// Listen binds addr and serves h there in the background, over TLS when
// sec names a key pair. A taken port or an unreadable certificate is its
// error, returned before anything is served. served receives Serve's
// error, which after Shutdown is http.ErrServerClosed; srv.Addr is the
// bound address.
func Listen(addr string, h http.Handler, sec store.Security) (srv *http.Server, served <-chan error, err error) {
	tlsCfg, err := sec.ServerTLSConfig()
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	// Bound header reads, header size and idle keep-alives against
	// slowloris clients. No write timeout: job streams, worker long polls
	// and artifact downloads legitimately run for minutes, and the job
	// stream bounds each write itself (Config.StreamWriteTimeout).
	srv = &http.Server{
		Addr:              ln.Addr().String(),
		Handler:           h,
		TLSConfig:         tlsCfg,
		ReadHeaderTimeout: 10 * time.Second,
		MaxHeaderBytes:    1 << 20,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() {
		if tlsCfg != nil {
			errc <- srv.ServeTLS(ln, "", "")
		} else {
			errc <- srv.Serve(ln)
		}
	}()
	return srv, errc, nil
}

// requireTenant gates h behind the tenant API-key table; open-access
// servers (no tenant table) pass through.
func (s *Server) requireTenant(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, ok := s.authTenant(w, r); !ok {
			return
		}
		h.ServeHTTP(w, r)
	})
}

// Drain puts the server into shutdown mode: /healthz turns 503 so load
// balancers stop routing here, and new job submissions are refused, while
// jobs already streaming run to completion (http.Server.Shutdown waits
// for them). Drain does not cancel anything.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.logf("draining: rejecting new jobs, finishing in-flight grids")
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// ResumeInterrupted finishes, in the background, every journaled job that
// was still running when the previous process died: each one re-enters
// the fair queue under its original tenant and runs with no client
// attached, its points landing in the durable result cache. By the time
// the submitting client retries, the whole grid replays from cache with
// zero recomputation.
//
// Crash-loop quarantine: a job found interrupted for the
// Config.MaxJobAttempts'th time is not resumed — every prior attempt
// journaled "running" and never reached a terminal state, which is the
// signature of a spec that deterministically takes the process down. The
// job transitions to the terminal poisoned state (the crash report is
// journaled and kept across compactions), matching resubmissions are
// refused with 422, and every other interrupted job proceeds untouched.
//
// Returns the number of jobs being resumed; mlcserve_jobs_resumed_total
// counts them as they finish, mlcserve_jobs_poisoned_total counts
// quarantines.
func (s *Server) ResumeInterrupted() int {
	s.mu.Lock()
	pending := s.pending
	s.pending = nil
	s.mu.Unlock()
	resumed := 0
	for _, p := range pending {
		if p.rec.Attempts >= s.cfg.maxJobAttempts() {
			s.quarantine(p.id, p.rec)
			continue
		}
		resumed++
		p := p
		go func() {
			tn := s.tenantByName(p.rec.Spec.Tenant)
			ok, _ := s.queue.acquire(nil, tn)
			if !ok {
				return // unreachable: a nil done channel never fires
			}
			defer s.queue.release()
			attempt := p.rec.Attempts + 1
			s.logf("resuming job %d (tenant %s, attempt %d/%d)", p.id, tn.name, attempt, s.cfg.maxJobAttempts())
			// Attempt-begin: journal the incremented attempt count before
			// runJob, so a crash during this resume is counted against the
			// quarantine limit by the next process.
			s.journalJob(p.id, jobRecord{Spec: p.rec.Spec, Status: statusRunning, Attempts: attempt})
			out := s.runJob(context.Background(), p.id, p.rec.Spec, tn, nopSink{}, false,
				func(err error) { s.logf("resume job %d: %v", p.id, err) })
			s.journalJob(p.id, jobRecord{Spec: p.rec.Spec, Status: out.status, Attempts: attempt, Error: out.errMsg})
			s.metrics.jobsResumed.Add(1)
		}()
	}
	return resumed
}

// quarantine transitions an interrupted job to the terminal poisoned
// state: journal the crash report, register the spec digest so
// resubmissions are refused, and export the event.
func (s *Server) quarantine(id int64, rec jobRecord) {
	d := specDigest(rec.Spec)
	prec := jobRecord{
		Spec:       rec.Spec,
		Status:     statusPoisoned,
		Attempts:   rec.Attempts,
		SpecDigest: d,
		Error:      fmt.Sprintf("quarantined after %d interrupted attempts", rec.Attempts),
		PoisonedAt: time.Now().UTC().Format(time.RFC3339),
	}
	s.journalJob(id, prec)
	s.poisonMu.Lock()
	s.poisoned[d] = prec
	s.poisonMu.Unlock()
	s.metrics.jobsPoisoned.Add(1)
	s.logf("job %d poisoned: %d interrupted attempts (limit %d), spec %s quarantined",
		id, rec.Attempts, s.cfg.maxJobAttempts(), d[:16])
}

// poisonedFor looks up a submission's spec in the quarantine registry.
// Call after tenant stamping and artifact resolution so the digest
// matches what was journaled.
func (s *Server) poisonedFor(spec coord.JobSpec) (jobRecord, bool) {
	d := specDigest(spec)
	s.poisonMu.Lock()
	defer s.poisonMu.Unlock()
	rec, ok := s.poisoned[d]
	return rec, ok
}

// tenantByName resolves a journaled tenant name to its runtime tenant,
// falling back to a detached ad-hoc tenant when the config no longer
// knows the name (the job still deserves finishing).
func (s *Server) tenantByName(name string) *tenant {
	if tn, ok := s.byName[name]; ok {
		return tn
	}
	if s.anon != nil {
		return s.anon
	}
	return newTenant(TenantConfig{Name: name})
}

// handleHealthz reports liveness; a draining server answers 503 so
// rolling restarts shift traffic before the listener closes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.Draining() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"status":      status,
		"jobs_active": s.metrics.jobsActive.Load(),
		"queue_depth": s.metrics.queueDepth.Load(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.writePrometheus(w, s.arenas.Stats(), s.sorted)
	s.writeStoreMetrics(w)
}

// retryAfterSeconds estimates when a queue slot may free up: the mean job
// duration, clamped to [1s, 5min]. Crude, but it gives well-behaved
// clients a better hint than a constant.
func (s *Server) retryAfterSeconds() int {
	sec := int(math.Ceil(s.metrics.jobSeconds.mean()))
	if sec < 1 {
		sec = 1
	}
	if sec > 300 {
		sec = 300
	}
	return sec
}

// jitterRetryAfter spreads a Retry-After estimate across ±20% so clients
// rejected in the same overload burst don't all resubmit in lockstep and
// recreate the burst. Always at least 1.
func jitterRetryAfter(sec int, rng *rand.Rand) int {
	if sec < 1 {
		sec = 1
	}
	j := int(math.Round(float64(sec) * (0.8 + 0.4*rng.Float64())))
	if j < 1 {
		j = 1
	}
	return j
}

// retryAfter draws a jittered Retry-After value around sec.
func (s *Server) retryAfter(sec int) string {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return strconv.Itoa(jitterRetryAfter(sec, s.rng))
}

// authTenant resolves the request's tenant. With a tenant table
// configured it requires a known API key and answers 401 itself on
// failure; otherwise every request is the anonymous tenant. The key is
// compared with every tenant's in constant time, so response latency
// reveals neither a key's bytes nor which tenant matched.
func (s *Server) authTenant(w http.ResponseWriter, r *http.Request) (*tenant, bool) {
	if s.anon != nil {
		return s.anon, true
	}
	key := []byte(store.RequestToken(r))
	var match *tenant
	for _, tn := range s.sorted {
		if subtle.ConstantTimeCompare(key, tn.key) == 1 {
			match = tn
		}
	}
	if match != nil {
		return match, true
	}
	s.metrics.jobsUnauthorized.Add(1)
	w.Header().Set("WWW-Authenticate", `Bearer realm="mlcserve"`)
	http.Error(w, "missing or unknown api key", http.StatusUnauthorized)
	return nil, false
}

// resultLine is one streamed record: a per-point result (Run set, Error
// empty), a per-point failure (Error set), or — with Done — the job's
// final summary carrying the rendered table.
type resultLine struct {
	Index   int         `json:"index"`
	L2KB    int64       `json:"l2_kb"`
	CycleNS int64       `json:"l2_cycle_ns"`
	Assoc   int         `json:"l2_assoc"`
	Cached  bool        `json:"cached,omitempty"`
	Error   string      `json:"error,omitempty"`
	Run     *cpu.Result `json:"run,omitempty"`
}

func lineFor(i int, pt sweep.Point) resultLine {
	return resultLine{Index: i, L2KB: pt.L2SizeBytes / 1024, CycleNS: pt.L2CycleNS, Assoc: pt.L2Assoc}
}

// startLine announces an accepted job before any simulation output.
type startLine struct {
	Job          int64  `json:"job"`
	Points       int    `json:"points"`
	ArenaHit     bool   `json:"arena_hit"`
	TraceSkipped int64  `json:"trace_skipped,omitempty"`
	Workload     string `json:"workload"`
	Tenant       string `json:"tenant,omitempty"`
}

// doneLine closes the stream. Table is the full sweep.WriteTable
// rendering, byte-identical to cmd/sweep output for the same grid. Error,
// when set, is the structured reason a job ended without a table (for
// deadline-exceeded jobs the stream's final record carries it).
type doneLine struct {
	Done      bool    `json:"done"`
	Job       int64   `json:"job"`
	Points    int     `json:"points"`
	Cached    int     `json:"cached"`
	Failed    int     `json:"failed"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Table     string  `json:"table,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// streamSink abstracts where a job's records go: an NDJSON stream, an SSE
// stream, or nowhere (background resume).
type streamSink interface {
	// send emits one record; event names the record kind for framings
	// that carry it (SSE).
	send(event string, v any)
}

// streamSupervisor guards every streaming write with a deadline: a client
// that stops reading parks the handler in the kernel's (or test pipe's)
// send path forever, pinning an arena lease and blocking Drain. Before
// each write the supervisor arms a per-write deadline on the connection
// (http.ResponseController.SetWriteDeadline); the first write that fails
// or times out cancels the job's context, counts a stall, and swallows
// all further output. timeout <= 0 disables the deadline but still
// detects plain write errors.
type streamSupervisor struct {
	rc      *http.ResponseController
	timeout time.Duration
	cancel  context.CancelFunc
	onStall func(error)
	failed  atomic.Bool
}

// guard runs one write under the deadline. After a failure the stream is
// dead: further writes are dropped so the job can finish journaling its
// terminal state without re-blocking.
func (sv *streamSupervisor) guard(write func() error) {
	if sv.failed.Load() {
		return
	}
	if sv.timeout > 0 {
		_ = sv.rc.SetWriteDeadline(time.Now().Add(sv.timeout))
	}
	if err := write(); err != nil {
		if sv.failed.CompareAndSwap(false, true) {
			if sv.onStall != nil {
				sv.onStall(err)
			}
			if sv.cancel != nil {
				sv.cancel()
			}
		}
	}
}

// flush pushes buffered response data to the connection, tolerating
// writers that cannot flush (http.ErrNotSupported) — they deliver on
// handler return instead.
func (sv *streamSupervisor) flush() error {
	if err := sv.rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
		return err
	}
	return nil
}

// ndjsonSink writes one JSON object per line, flushing each so clients
// see points as they complete, every write supervised.
type ndjsonSink struct {
	enc *json.Encoder
	sup *streamSupervisor
}

func (s ndjsonSink) send(_ string, v any) {
	s.sup.guard(func() error {
		if err := s.enc.Encode(v); err != nil {
			return err
		}
		return s.sup.flush()
	})
}

// sseSink frames the same records as Server-Sent Events (text/event-stream)
// with event types start/result/done, so browsers can consume the job via
// EventSource without a streaming-fetch polyfill.
type sseSink struct {
	w   io.Writer
	sup *streamSupervisor
}

func (s sseSink) send(event string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	s.sup.guard(func() error {
		if _, err := fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", event, b); err != nil {
			return err
		}
		return s.sup.flush()
	})
}

// nopSink discards the stream (resumed jobs have no client).
type nopSink struct{}

func (nopSink) send(string, any) {}

// maxJobSpecBytes caps a POST /jobs body. A spec with both grid axes at
// their MaxGridDim bound is under 100 KB; a larger body is refused with
// 413 before it is decoded in full.
const maxJobSpecBytes = 1 << 20

// handleJobs runs one sweep job end to end: identity, quota, fair-queue
// admission, journaling, then the shared runJob core.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST a job spec", http.StatusMethodNotAllowed)
		return
	}
	if s.Draining() {
		http.Error(w, "server is draining", http.StatusServiceUnavailable)
		return
	}
	tn, ok := s.authTenant(w, r)
	if !ok {
		return
	}
	var spec coord.JobSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobSpecBytes)).Decode(&spec); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("bad job spec: %v", err), code)
		return
	}
	if err := spec.Validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The tenant label is the server's to assign; a client cannot claim
	// another tenant's name.
	spec.Tenant = tn.name
	if s.cfg.MaxJobDeadline > 0 && time.Duration(spec.DeadlineSec)*time.Second > s.cfg.MaxJobDeadline {
		rejectJSON(w, http.StatusBadRequest, map[string]any{
			"error":            "deadline exceeds server cap",
			"deadline_sec":     spec.DeadlineSec,
			"max_deadline_sec": int64(s.cfg.MaxJobDeadline / time.Second),
		})
		return
	}
	if err := s.resolveArtifact(&spec); err != nil {
		code := http.StatusNotFound
		if errors.Is(err, errArtifactUnavailable) {
			// The object may well be published; the store could not
			// produce it now. A few seconds covers a remote tier's own
			// fill retries.
			code = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", s.retryAfter(5))
		}
		http.Error(w, err.Error(), code)
		return
	}

	// Quarantine check: a spec that crash-looped the process is refused
	// outright, with the journaled crash report as the structured reason.
	if prec, ok := s.poisonedFor(spec); ok {
		s.metrics.jobsRejectedPoisoned.Add(1)
		rejectJSON(w, http.StatusUnprocessableEntity, map[string]any{
			"error":       "job spec is quarantined: previous attempts crashed the server",
			"status":      statusPoisoned,
			"spec_digest": prec.SpecDigest,
			"attempts":    prec.Attempts,
			"poisoned_at": prec.PoisonedAt,
		})
		return
	}

	// Admission cost governance: price the job from its spec (artifact
	// headers only — no materialization) and refuse ruinous ones before
	// any journal write or arena allocation.
	est, err := EstimateJob(spec, s.cfg.Parallelism)
	if err != nil {
		http.Error(w, fmt.Sprintf("workload: %v", err), http.StatusBadRequest)
		return
	}
	// Check against the gate's resolved limit, so a job larger than the
	// whole of it gets the permanent 413 whatever the flags.
	cost := s.cfg.Cost
	cost.MaxInflightBytes = s.gate.max
	if ce := cost.check(est); ce != nil {
		s.metrics.jobsRejectedCost.Add(1)
		rejectJSON(w, http.StatusRequestEntityTooLarge, map[string]any{
			"error":     "job exceeds admission budget",
			"reason":    ce.Reason,
			"estimated": ce.Estimated,
			"limit":     ce.Limit,
		})
		return
	}

	asCSV := false
	if v := r.URL.Query().Get("csv"); v != "" && v != "0" && v != "false" {
		asCSV = true
	}
	asSSE := strings.Contains(r.Header.Get("Accept"), "text/event-stream") ||
		r.URL.Query().Get("sse") == "1"

	// Per-tenant token-bucket admission: a tenant above its rate is told
	// when its next token accrues, ±20% so a burst of rejected clients
	// doesn't resynchronize.
	if ok, wait := tn.bucket.take(time.Now()); !ok {
		s.metrics.jobsRejectedQuota.Add(1)
		tn.m.rejectedQuota.Add(1)
		w.Header().Set("Retry-After", s.retryAfter(int(math.Ceil(wait.Seconds()))))
		http.Error(w, "tenant job quota exceeded", http.StatusTooManyRequests)
		return
	}

	// Aggregate in-flight byte budget: admissible jobs that would jointly
	// overcommit memory wait their turn instead of OOM-killing everyone.
	if !s.gate.reserve(est.Bytes) {
		s.metrics.jobsRejectedLoad.Add(1)
		w.Header().Set("Retry-After", s.retryAfter(s.retryAfterSeconds()))
		rejectJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error":           "estimated in-flight bytes budget exhausted",
			"estimated_bytes": est.Bytes,
		})
		return
	}
	defer s.gate.release(est.Bytes)

	// Weighted fair admission to a run slot.
	admitStart := time.Now()
	ok, full := s.queue.acquire(r.Context().Done(), tn)
	if full {
		s.metrics.jobsRejected.Add(1)
		tn.m.rejectedQueue.Add(1)
		w.Header().Set("Retry-After", s.retryAfter(s.retryAfterSeconds()))
		http.Error(w, "job queue full", http.StatusTooManyRequests)
		return
	}
	if !ok {
		// The client gave up while queued; nothing useful to write.
		return
	}
	defer s.queue.release()
	tn.m.admitSeconds.observe(time.Since(admitStart).Seconds())

	s.mu.Lock()
	s.jobSeq++
	jobID := s.jobSeq
	s.mu.Unlock()
	// Attempt-begin: journaled before runJob so a crash mid-job counts
	// against the quarantine limit on restart.
	s.journalJob(jobID, jobRecord{Spec: spec, Status: statusRunning, Attempts: 1})

	// The job's context dies with the client — or when the stream
	// supervisor declares the client stalled.
	jctx, cancelJob := context.WithCancel(r.Context())
	defer cancelJob()
	sup := &streamSupervisor{
		rc:      http.NewResponseController(w),
		timeout: s.cfg.streamWriteTimeout(),
		cancel:  cancelJob,
		onStall: func(err error) {
			s.metrics.streamStalls.Add(1)
			s.logf("job %d: stream write stalled or failed, disconnecting client: %v", jobID, err)
		},
	}
	var sink streamSink
	if asSSE {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-store")
		sink = sseSink{w: w, sup: sup}
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
		sink = ndjsonSink{enc: json.NewEncoder(w), sup: sup}
	}
	w.Header().Set("X-Accel-Buffering", "no")

	out := s.runJob(jctx, jobID, spec, tn, sink, asCSV, func(err error) {
		http.Error(w, fmt.Sprintf("workload: %v", err), http.StatusBadRequest)
	})
	s.journalJob(jobID, jobRecord{Spec: spec, Status: out.status, Attempts: 1, Error: out.errMsg})
}

// rejectJSON answers a machine-readable rejection.
func rejectJSON(w http.ResponseWriter, code int, payload map[string]any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(payload)
}

// errArtifactUnavailable marks a digest the artifact store failed to
// resolve for a reason other than its absence, such as a remote tier
// answering 500: retrying may succeed, re-uploading would not help.
var errArtifactUnavailable = errors.New("artifact store unavailable")

// resolveArtifact rewrites a content-addressed spec to a local path: an
// already-valid TracePath hint wins (shared filesystem), otherwise the
// digest must name an object published to this server's artifact store.
// Resolution happens before journaling, so a replayed job re-runs against
// the same committed object. A no-op for path and synthetic specs.
func (s *Server) resolveArtifact(spec *coord.JobSpec) error {
	if spec.ArtifactDigest == "" {
		return nil
	}
	d, err := store.ParseDigest(spec.ArtifactDigest)
	if err != nil {
		return err // unreachable past Validate; defensive
	}
	if spec.TracePath != "" {
		if _, err := os.Stat(spec.TracePath); err == nil {
			return nil
		}
	}
	if s.artifacts == nil {
		return fmt.Errorf("job names trace by digest %s but this server has no artifact store (-artifact-store)", d)
	}
	path, err := s.artifacts.Resolve(d)
	if errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("artifact %s not published to this server: PUT it to %s%s first", d, store.PathArtifacts, d)
	}
	if err != nil {
		return fmt.Errorf("%w: resolving %s: %w", errArtifactUnavailable, d, err)
	}
	spec.TracePath = path
	s.addArtifactRoot(d)
	return nil
}

// journalJob records a job-state transition; journal trouble degrades
// durability, not availability, so it is logged rather than failed.
func (s *Server) journalJob(jobID int64, rec jobRecord) {
	if s.durable == nil {
		return
	}
	if err := s.durable.appendJob(jobKey(jobID), rec); err != nil {
		s.logf("journal job %d: %v", jobID, err)
	}
}

// jobOutcome is runJob's terminal verdict: the journal status plus the
// structured error message (empty for clean completion) the caller
// journals alongside it.
type jobOutcome struct {
	status string
	errMsg string
}

// runJob executes one admitted job: workload lease, result-cache probe,
// simulation with journaling and streaming, final table. onError reports
// a failure to build the workload before anything was streamed. The
// returned outcome is the job's terminal journal state.
func (s *Server) runJob(ctx context.Context, jobID int64, spec coord.JobSpec, tn *tenant,
	sink streamSink, asCSV bool, onError func(error)) jobOutcome {
	s.metrics.jobsTotal.Add(1)
	tn.m.jobs.Add(1)
	s.metrics.jobsActive.Add(1)
	defer s.metrics.jobsActive.Add(-1)
	start := time.Now()

	// Live-job GC root: pin the spec's artifact with the backend so a
	// concurrent collection cycle cannot reclaim it mid-simulation, even
	// if the root set it marked with was stale.
	if pins, ok := s.artifacts.(backend.Pins); ok && spec.ArtifactDigest != "" {
		if d, err := store.ParseDigest(spec.ArtifactDigest); err == nil {
			pins.Pin(d)
			defer pins.Unpin(d)
		}
	}

	// Test-only crash injection: go down exactly where a deterministic
	// poison job would — after the attempt-begin journal record, before
	// any result lands — so restart harnesses can drive the quarantine
	// path with a real kill.
	if s.fault.matches(spec) {
		s.logf("fault-point %s: crashing process on job %d", s.cfg.FaultPoint, jobID)
		os.Exit(FaultExitCode)
	}

	// A spec deadline bounds the whole run, materialization included.
	dctx := ctx
	if spec.DeadlineSec > 0 {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(ctx, time.Duration(spec.DeadlineSec)*time.Second)
		defer cancel()
	}

	wl, arenaHit, err := s.arenas.Acquire(spec)
	if err != nil {
		onError(err)
		return jobOutcome{status: statusFailed, errMsg: err.Error()}
	}
	defer wl.Release()
	pts := spec.Points()
	s.logf("job %d (tenant %s): %d points, workload %s (arena hit=%t)",
		jobID, tn.name, len(pts), wl.Key(), arenaHit)

	sink.send("start", startLine{
		Job: jobID, Points: len(pts), ArenaHit: arenaHit,
		TraceSkipped: wl.Skipped(), Workload: wl.Key(), Tenant: tn.name,
	})

	// Probe the result cache — warm from this process's jobs or replayed
	// from the journal — and stream every known point immediately.
	base := resultKeyBase(wl.Key(), spec)
	cached := make(map[sweep.Point]cpu.Result)
	index := make(map[sweep.Point]int, len(pts))
	for i, pt := range pts {
		index[pt] = i
		if run, ok := s.results.get(base, pt); ok {
			cached[pt] = run
			line := lineFor(i, pt)
			line.Cached = true
			run := run
			line.Run = &run
			sink.send("result", line)
		}
	}
	s.metrics.pointsCached.Add(int64(len(cached)))
	tn.m.pointsCached.Add(int64(len(cached)))

	runner := spec.RunnerFor(wl.Arena())
	runner.Parallelism = s.cfg.Parallelism
	arenaRefs := int64(wl.Arena().Len())

	// OnResult only queues a finished point: the job's committer journals
	// the points in batches and only then caches and streams them (see
	// commitResults), so the simulation never waits for the disk or the
	// client. The committer is the only writer to sink between the cached
	// prefix above and drain below, so sink needs no extra locking.
	publish := func(res sweep.Result) {
		s.metrics.pointsTotal.Add(1)
		tn.m.points.Add(1)
		s.metrics.refsTotal.Add(arenaRefs)
		line := lineFor(index[res.Point], res.Point)
		run := res.Run
		line.Run = &run
		sink.send("result", line)
	}
	commits := sweep.NewCommitter(func(batch []sweep.Result) { s.commitResults(base, batch, publish) })
	opts := sweep.Options{
		Skip: func(pt sweep.Point) bool {
			_, ok := cached[pt]
			return ok
		},
		OnResult: commits.Add,
	}
	results, runErr := runner.RunContext(dctx, pts, opts)
	commits.Drain()
	if runErr == nil {
		// The committer may have found the client gone only after the
		// last point finished; the job is canceled all the same.
		runErr = ctx.Err()
	}
	if runErr != nil {
		if errors.Is(dctx.Err(), context.DeadlineExceeded) && ctx.Err() == nil {
			// The job's own deadline fired while the client (or resume
			// parent) was still alive: a runaway job, not a dead client.
			// The final stream record carries the structured reason, the
			// queue slot frees on return, and the journal lands
			// failed(deadline).
			s.metrics.jobsDeadline.Add(1)
			msg := fmt.Sprintf("deadline exceeded after %ds", spec.DeadlineSec)
			elapsed := time.Since(start)
			sink.send("done", doneLine{
				Done: true, Job: jobID, Points: len(pts), Cached: len(cached),
				ElapsedMS: float64(elapsed.Microseconds()) / 1000, Error: msg,
			})
			s.logf("job %d: %s (%v elapsed)", jobID, msg, elapsed.Round(time.Millisecond))
			return jobOutcome{status: statusFailed, errMsg: msg}
		}
		// Client disconnected, stream stalled past the write timeout, or
		// the server is shutting down — the job context died.
		s.metrics.jobsCanceled.Add(1)
		tn.m.canceled.Add(1)
		s.logf("job %d: canceled after %v", jobID, time.Since(start).Round(time.Millisecond))
		return jobOutcome{status: statusCanceled, errMsg: "canceled"}
	}

	// Fill cache-served points into the full result set and surface
	// per-point failures on the stream.
	failed := 0
	for i := range results {
		if results[i].Skipped {
			results[i].Run = cached[results[i].Point]
			results[i].Skipped = false
			continue
		}
		if results[i].Err != nil {
			failed++
			s.metrics.pointsFailed.Add(1)
			line := lineFor(i, results[i].Point)
			line.Error = results[i].Err.Error()
			sink.send("result", line)
		}
	}

	var table bytes.Buffer
	if err := sweep.WriteTable(&table, results, experiments.CPUCycleNS, asCSV); err != nil {
		s.logf("job %d: render: %v", jobID, err)
		return jobOutcome{status: statusFailed, errMsg: err.Error()}
	}
	elapsed := time.Since(start)
	s.metrics.jobSeconds.observe(elapsed.Seconds())
	sink.send("done", doneLine{
		Done:      true,
		Job:       jobID,
		Points:    len(pts),
		Cached:    len(cached),
		Failed:    failed,
		ElapsedMS: float64(elapsed.Microseconds()) / 1000,
		Table:     table.String(),
	})
	s.logf("job %d: done in %v (%d cached, %d failed)", jobID, elapsed.Round(time.Millisecond), len(cached), failed)
	return jobOutcome{status: statusDone}
}
