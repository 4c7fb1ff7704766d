package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"mlcache/internal/coord"
	"mlcache/internal/experiments"
	"mlcache/internal/serve"
	"mlcache/internal/store"
	"mlcache/internal/sweep"
	"mlcache/internal/trace"
)

// serveInput is what every service workload sets up: seeded traces
// written as .mlca artifacts, published to a content-addressed store, and
// the job mix that names them by digest.
type serveInput struct {
	dir      string
	storeDir string
	traces   []serveTrace
	specs    []coord.JobSpec
	specOf   []int // index into traces of each spec's trace
}

type serveTrace struct {
	arena *trace.Arena // in-memory copy of the published artifact
	path  string       // the artifact as written, before publishing
}

// The job mix is the Fig 4-1 grid (110 points, 4 KB L1) over each of five
// traces × four L2 associativities × two memory speeds: 40 jobs and 4,400
// distinct points. Varying the trace rather than the L1 keeps every cold
// job's cost alike (the L1 size sets how many events reach the L2), so a
// run's median does not depend on which job lands in the middle. Each
// trace is 100k refs: the per-point service work (journal fsync,
// streaming) does not depend on it, and a round of 40 cold jobs takes a
// few seconds. Short runs keep one trace and 2 jobs of 4 points.
const (
	serveTraces    = 5
	serveTraceRefs = 100_000
)

func setupServeInput(e *env) (*serveInput, error) {
	traces, refs, assocs := serveTraces, int64(serveTraceRefs), []int{1, 2, 4, 8}
	grid, err := fig41Spec()
	if err != nil {
		return nil, err
	}
	if e.short {
		traces, refs, assocs = 1, 5_000, assocs[:1]
		grid.SizesBytes, grid.CyclesNS = grid.SizesBytes[:2], grid.CyclesNS[:2]
	}
	dir, err := os.MkdirTemp(e.dir, "serve-")
	if err != nil {
		return nil, err
	}
	in := &serveInput{dir: dir, storeDir: filepath.Join(dir, "artifacts")}
	fs, err := store.OpenFileStore(in.storeDir)
	if err != nil {
		return nil, err
	}
	for k := 0; k < traces; k++ {
		t := serveTrace{path: filepath.Join(dir, fmt.Sprintf("trace%d.mlca", k))}
		if t.arena, err = synthArena(e, e.seed*serveTraces+int64(k), refs); err != nil {
			return nil, err
		}
		if err := e.tr.timed("trace.WriteArtifact", e.parent, 0, func() error {
			return trace.WriteArtifact(t.path, t.arena)
		}); err != nil {
			return nil, err
		}
		crc, err := trace.ArtifactChecksum(t.path)
		if err != nil {
			return nil, err
		}
		var d store.Digest
		if err := e.tr.timed("store.FileStore.Add", e.parent, 0, func() (err error) {
			d, err = fs.Add(t.path)
			return err
		}); err != nil {
			return nil, err
		}
		in.traces = append(in.traces, t)
		for _, a := range assocs {
			for _, slow := range []bool{false, true} {
				s := grid
				s.Assoc, s.SlowMem = a, slow
				s.ArtifactDigest, s.ArtifactCRC = d.String(), crc
				in.specs = append(in.specs, s)
				in.specOf = append(in.specOf, k)
			}
		}
	}
	return in, nil
}

// localSpec names spec i's artifact by its local path instead of its
// digest, for library runs outside the service.
func (in *serveInput) localSpec(i int) coord.JobSpec {
	s := in.specs[i]
	s.ArtifactDigest, s.ArtifactCRC, s.TracePath = "", 0, in.traces[in.specOf[i]].path
	return s
}

// server is one in-process service behind a loopback HTTP listener, with
// one simulation worker per job. The workloads drive it with one
// closed-loop client: with two, the jobs compete for a two-core host's
// cores, and which hierarchies the pool keeps depends on how they
// interleave, so neither latency nor memory repeats.
type server struct {
	svc  *serve.Server
	http *httptest.Server
}

func (in *serveInput) start(tr *tracer, parent int, job int64, stateDir string) (*server, error) {
	var svc *serve.Server
	if err := tr.timed("serve.New", parent, job, func() (err error) {
		svc, err = serve.New(serve.Config{Parallelism: 1, StateDir: stateDir, ArtifactDir: in.storeDir})
		return err
	}); err != nil {
		return nil, err
	}
	return &server{svc: svc, http: httptest.NewServer(svc.Handler())}, nil
}

// stop drains the service, waits for in-flight requests and closes the
// journals.
func (sv *server) stop() {
	sv.svc.Drain()
	sv.http.Close()
	sv.svc.Close()
}

func (sv *server) healthy() error {
	resp, err := sv.http.Client().Get(sv.http.URL + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// jobReply is what a client saw of one job's NDJSON stream.
type jobReply struct {
	points int // grid points, from the done line
	cached int // points served from the result cache
	failed int
	table  string
}

// streamLine decodes any line of a job stream: the start line, a result
// line (Index set; Cached is a bool) or the done line (Done set; Cached is
// a count).
type streamLine struct {
	Done   bool            `json:"done"`
	Index  *int            `json:"index"`
	Error  string          `json:"error"`
	Cached json.RawMessage `json:"cached"`
	Points int             `json:"points"`
	Failed int             `json:"failed"`
	Table  string          `json:"table"`
}

// submit posts one job and reads its stream to the done line. A traced op
// records serve.ttfb (to the start line, which follows admission, queueing,
// artifact resolution and arena acquisition), serve.ttfp (to the first
// point) and serve.stream (first point to done line).
func (sv *server) submit(oc opCtx, spec coord.JobSpec) (jobReply, error) {
	var r jobReply
	body, err := json.Marshal(spec)
	if err != nil {
		return r, err
	}
	t0 := time.Now()
	resp, err := sv.http.Client().Post(sv.http.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return r, fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var header, first time.Time
	done := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		now := time.Now()
		var l streamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return r, fmt.Errorf("stream line: %w", err)
		}
		switch {
		case l.Done:
			if l.Error != "" {
				return r, fmt.Errorf("job ended: %s", l.Error)
			}
			r.points, r.failed, r.table = l.Points, l.Failed, l.Table
			if r.cached, err = strconv.Atoi(string(l.Cached)); err != nil {
				return r, fmt.Errorf("done line cached count %q", l.Cached)
			}
			done = true
			oc.tr.add("serve.ttfb", oc.parent, oc.job, t0, header)
			oc.tr.add("serve.ttfp", oc.parent, oc.job, t0, first)
			oc.tr.add("serve.stream", oc.parent, oc.job, first, now)
		case l.Index != nil:
			if first.IsZero() {
				first = now
			}
		default:
			header = now
		}
	}
	if err := sc.Err(); err != nil {
		return r, err
	}
	if !done {
		return r, fmt.Errorf("stream ended without a done line")
	}
	if r.failed > 0 {
		return r, fmt.Errorf("%d points failed", r.failed)
	}
	return r, nil
}

// coldRound submits every spec once, keeping each table as the canonical
// output for its spec.
func (in *serveInput) coldRound(sv *server, outs *canonicalOutputs) error {
	for i, spec := range in.specs {
		r, err := sv.submit(opCtx{parent: -1}, spec)
		if err == nil {
			err = checkCold(r)
		}
		if err == nil {
			err = outs.match(i, []byte(r.table))
		}
		if err != nil {
			return fmt.Errorf("job %d: %w", i, err)
		}
	}
	return nil
}

func checkCold(r jobReply) error {
	if r.cached != 0 {
		return fmt.Errorf("cold job answered %d of %d points from cache", r.cached, r.points)
	}
	return nil
}

func checkCached(r jobReply) error {
	if r.cached != r.points {
		return fmt.Errorf("job answered %d of %d points from cache, want all", r.cached, r.points)
	}
	return nil
}

// crossCheck compares four sampled service tables with the library's own
// rendering of the same grids over the in-memory trace.
func (in *serveInput) crossCheck(seed int64, outs *canonicalOutputs) error {
	rng := rand.New(rand.NewSource(seed))
	for _, i := range rng.Perm(len(in.specs))[:min(4, len(in.specs))] {
		spec := in.localSpec(i)
		runner := spec.RunnerFor(in.traces[in.specOf[i]].arena)
		runner.Parallelism = simPar
		results, err := runner.RunContext(context.Background(), spec.Points(), sweep.Options{})
		if err != nil {
			return err
		}
		var want bytes.Buffer
		if err := sweep.WriteTable(&want, results, experiments.CPUCycleNS, false); err != nil {
			return err
		}
		got, ok := outs.get(i)
		if !ok {
			return fmt.Errorf("job %d never completed", i)
		}
		if string(got) != want.String() {
			return fmt.Errorf("job %d: served table differs from sweep.WriteTable", i)
		}
	}
	return nil
}

func (in *serveInput) probe(e *env, stateDir string) probeInput {
	spec := in.localSpec(0)
	arena := in.traces[0].arena
	return probeInput{
		arena: arena, cfg: baseMachine(), cpu: experiments.Options{Warmup: int64(arena.Len()) / 5}.CPU(),
		synthRefs: int64(arena.Len()), dir: e.dir, stateDir: stateDir,
		jobSpec: &spec, jobPoints: len(spec.Points()),
	}
}

// setupServeCold measures jobs no server has seen: each round of ops is
// every spec once, against a fresh server on an empty state directory.
func setupServeCold(e *env) (*instance, error) {
	in, err := setupServeInput(e)
	if err != nil {
		return nil, err
	}
	newServer := func(tr *tracer, parent int) (*server, error) {
		dir, err := os.MkdirTemp(in.dir, "state-")
		if err != nil {
			return nil, err
		}
		return in.start(tr, parent, 0, dir)
	}
	cur, err := newServer(e.tr, e.parent)
	if err != nil {
		return nil, err
	}
	var outs canonicalOutputs
	n := len(in.specs)
	return &instance{
		round: n,
		prepare: func(seq int) error {
			if seq == 0 || seq%n != 0 {
				return nil
			}
			sv, err := newServer(nil, -1)
			if err != nil {
				return err
			}
			cur.stop()
			cur = sv
			return nil
		},
		op: func(oc opCtx, seq int) (any, error) {
			return cur.submit(oc, in.specs[seq%n])
		},
		verify: func(seq int, out any) error {
			r := out.(jobReply)
			if err := checkCold(r); err != nil {
				return err
			}
			return outs.match(seq%n, []byte(r.table))
		},
		canonical: outs.joined,
		check:     func() error { return in.crossCheck(e.seed, &outs) },
		probe:     in.probe(e, ""),
		close:     func() { cur.stop() },
	}, nil
}

// setupServeWarm measures resubmissions: after one untimed cold round,
// each op resubmits all 40 specs, one after another, and the result cache
// must answer every point. A single warm job takes about 2 ms, too short
// to ride out the bursts of host load that slow tens of jobs in a row; a
// whole round averages them, as a simulation pass does.
func setupServeWarm(e *env) (*instance, error) {
	in, err := setupServeInput(e)
	if err != nil {
		return nil, err
	}
	stateDir := filepath.Join(in.dir, "state")
	sv, err := in.start(e.tr, e.parent, 0, stateDir)
	if err != nil {
		return nil, err
	}
	var outs canonicalOutputs
	return &instance{
		warm: func() error { return in.coldRound(sv, &outs) },
		op: func(oc opCtx, _ int) (any, error) {
			replies := make([]jobReply, len(in.specs))
			for i, spec := range in.specs {
				r, err := sv.submit(oc, spec)
				if err != nil {
					return nil, fmt.Errorf("job %d: %w", i, err)
				}
				replies[i] = r
			}
			return replies, nil
		},
		verify: func(_ int, out any) error {
			for i, r := range out.([]jobReply) {
				if err := checkCached(r); err != nil {
					return fmt.Errorf("job %d: %w", i, err)
				}
				if err := outs.match(i, []byte(r.table)); err != nil {
					return err
				}
			}
			return nil
		},
		canonical: outs.joined,
		check:     func() error { return in.crossCheck(e.seed, &outs) },
		probe:     in.probe(e, stateDir),
		close:     sv.stop,
	}, nil
}

// setupServeRestart measures recovery: after one untimed cold round has
// journaled every point, each op starts a new service on that state
// directory (replaying the journal), waits for /healthz, and submits one
// job, which the replayed cache must answer in full.
func setupServeRestart(e *env) (*instance, error) {
	in, err := setupServeInput(e)
	if err != nil {
		return nil, err
	}
	stateDir := filepath.Join(in.dir, "state")
	cur, err := in.start(e.tr, e.parent, 0, stateDir)
	if err != nil {
		return nil, err
	}
	stop := func() {
		if cur != nil {
			cur.stop()
			cur = nil
		}
	}
	var outs canonicalOutputs
	n := len(in.specs)
	return &instance{
		warm: func() error {
			defer stop()
			return in.coldRound(cur, &outs)
		},
		// A restarted process starts with an empty heap; collecting the old
		// server's garbage here keeps its cost out of the next restart.
		prepare: func(int) error {
			stop()
			runtime.GC()
			return nil
		},
		op: func(oc opCtx, seq int) (any, error) {
			id := oc.tr.begin("serve.restart", oc.parent, oc.job)
			var err error
			if cur, err = in.start(oc.tr, id, oc.job, stateDir); err == nil {
				err = cur.healthy()
			}
			oc.tr.end(id)
			if err != nil {
				return nil, err
			}
			return cur.submit(oc, in.specs[seq%n])
		},
		verify: func(seq int, out any) error {
			r := out.(jobReply)
			if err := checkCached(r); err != nil {
				return err
			}
			return outs.match(seq%n, []byte(r.table))
		},
		canonical: outs.joined,
		check:     func() error { return in.crossCheck(e.seed, &outs) },
		probe:     in.probe(e, stateDir),
		close:     stop,
	}, nil
}
