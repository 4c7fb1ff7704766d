package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mlcache/internal/checkpoint"
	"mlcache/internal/coord"
	"mlcache/internal/cpu"
	"mlcache/internal/experiments"
	"mlcache/internal/report"
	"mlcache/internal/store"
	"mlcache/internal/store/backend"
	"mlcache/internal/store/backend/fakes3"
	"mlcache/internal/sweep"
	"mlcache/internal/synth"
	"mlcache/internal/trace"
)

func TestParseRange(t *testing.T) {
	for _, tc := range []struct {
		in     string
		lo, hi int64
		ok     bool
	}{
		{"16-4096", 16, 4096, true},
		{"4-4", 4, 4, true},
		{"64-16", 0, 0, false},
		{"0-16", 0, 0, false},
		{"16", 0, 0, false},
		{"x-16", 0, 0, false},
		{"16-y", 0, 0, false},
	} {
		lo, hi, err := parseRange(tc.in)
		if (err == nil) != tc.ok || lo != tc.lo || hi != tc.hi {
			t.Errorf("parseRange(%q) = %d, %d, %v; want %d, %d, ok=%v", tc.in, lo, hi, err, tc.lo, tc.hi, tc.ok)
		}
	}
}

func TestParseSizes(t *testing.T) {
	for _, tc := range []struct {
		in     string
		lo, hi int64
		ok     bool
	}{
		{"16-4096", 16, 4096, true},
		{"1-1", 1, 1, true},
		{"16-24", 0, 0, false},
		{"24-96", 0, 0, false},
		{"64-16", 0, 0, false},
	} {
		lo, hi, err := parseSizes(tc.in)
		if (err == nil) != tc.ok || lo != tc.lo || hi != tc.hi {
			t.Errorf("parseSizes(%q) = %d, %d, %v; want %d, %d, ok=%v", tc.in, lo, hi, err, tc.lo, tc.hi, tc.ok)
		}
	}
}

// digestJob writes a 20k-reference artifact and returns a job spec that
// names it by digest alone, the artifact's path and digest, and the CSV a
// local run of the same grid prints.
func digestJob(t *testing.T) (dist coord.JobSpec, path string, d store.Digest, want string) {
	t.Helper()
	arena, err := trace.Materialize(synth.PaperStream(1, 20000))
	if err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(t.TempDir(), "workload.mlca")
	if err := trace.WriteArtifact(path, arena); err != nil {
		t.Fatal(err)
	}
	d, _, err = store.DigestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	crc, err := trace.ArtifactChecksum(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := coord.JobSpec{
		SizesBytes: []int64{8192, 32768},
		CyclesNS:   []int64{2 * experiments.CPUCycleNS, 3 * experiments.CPUCycleNS},
		Assoc:      1,
		L1KB:       4,
	}
	local := spec
	local.TracePath = path
	want = renderCSV(t, func() []sweep.Result {
		arena, closer, _, err := local.MaterializeArena(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer closer.Close()
		results, err := local.RunnerFor(arena).RunContext(context.Background(), local.Points(), sweep.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return results
	}())
	dist = spec
	dist.ArtifactDigest = d.String()
	dist.ArtifactCRC = crc
	return dist, path, d, want
}

// joinOnce runs runWorker with wo against a fresh in-process coordinator
// for dist, whose /artifacts/ endpoint serves the artifact at path and
// counts its GETs in gets, and returns the merged CSV.
func joinOnce(t *testing.T, dist coord.JobSpec, path string, wo workerOptions, gets *atomic.Int64) string {
	t.Helper()
	d, err := store.ParseDigest(dist.ArtifactDigest)
	if err != nil {
		t.Fatal(err)
	}
	c, err := coord.New(coord.Config{Job: dist, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	artifacts := &store.Handler{Source: store.Static{d: path}}
	mux := http.NewServeMux()
	mux.Handle(store.PathArtifacts, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			gets.Add(1)
		}
		artifacts.ServeHTTP(w, r)
	}))
	mux.Handle("/", c.Handler())
	srv := httptest.NewServer(mux)
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	type ran struct {
		results []sweep.Result
		err     error
	}
	done := make(chan ran, 1)
	go func() {
		results, err := c.RunContext(ctx, dist.Points(), sweep.Options{})
		done <- ran{results, err}
	}()
	if err := runWorker(ctx, srv.URL, wo); err != nil {
		t.Fatalf("worker: %v", err)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("coordinator: %v", r.err)
	}
	return renderCSV(t, r.results)
}

// TestRunWorkerColdThenWarm joins runWorker to an in-process coordinator
// that names its trace by digest alone. The cold run fetches the
// artifact once; a second run against a fresh coordinator, over the same
// -artifact-cache directory, fetches nothing. Both merged CSVs equal a
// local run, and the cache holds exactly the one committed object.
func TestRunWorkerColdThenWarm(t *testing.T) {
	dist, path, d, want := digestJob(t)
	cacheDir := t.TempDir()
	var gets atomic.Int64
	run := func(step string) {
		t.Helper()
		got := joinOnce(t, dist, path, workerOptions{id: "w", par: 1, cacheDir: cacheDir}, &gets)
		if got != want {
			t.Errorf("%s: merged CSV differs from the local run:\n--- got ---\n%s--- want ---\n%s", step, got, want)
		}
		ents, err := os.ReadDir(cacheDir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 1 || ents[0].Name() != d.Hex()+".mlca" {
			var names []string
			for _, e := range ents {
				names = append(names, e.Name())
			}
			t.Fatalf("%s: cache holds %v, want exactly %s.mlca", step, names, d.Hex())
		}
	}

	run("cold run")
	if n := gets.Load(); n != 1 {
		t.Fatalf("cold run: %d artifact GETs, want 1", n)
	}
	run("warm run")
	if n := gets.Load(); n != 1 {
		t.Fatalf("warm run: %d more artifact GETs, want 0", n-1)
	}
}

// TestRunWorkerFillsFromBucket: a worker given an S3 endpoint fills its
// artifact cache from the bucket, never from the coordinator's
// /artifacts/, and merges the CSV a local run prints.
func TestRunWorkerFillsFromBucket(t *testing.T) {
	dist, path, d, want := digestJob(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fake := fakes3.New(fakes3.Config{Bucket: "traces", AccessKey: "AKTEST", SecretKey: "sekrit"})
	fake.PutObject(backend.ObjectKey("mlca/", d), data)
	bucket := httptest.NewServer(fake)
	defer bucket.Close()

	var gets atomic.Int64
	got := joinOnce(t, dist, path, workerOptions{
		id: "w", par: 1, cacheDir: t.TempDir(),
		s3: backend.S3Config{
			Endpoint: bucket.URL, Bucket: "traces",
			AccessKey: "AKTEST", SecretKey: "sekrit", Insecure: true,
		},
	}, &gets)
	if got != want {
		t.Errorf("merged CSV differs from the local run:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if n := fake.Stats().Gets; n < 1 {
		t.Errorf("bucket served %d GETs, want at least 1", n)
	}
	if n := gets.Load(); n != 0 {
		t.Errorf("coordinator served %d artifact GETs, want 0", n)
	}
}

// TestRunLocalInterruptedWhileLoading: a sweep interrupted while its
// synthetic trace is generated reports like one interrupted mid-grid. It
// prints the table with every point not journaled FAILED, logs how many
// points are done, and exits 1. With -resume, journaled points still
// count as done.
func TestRunLocalInterruptedWhileLoading(t *testing.T) {
	spec := coord.JobSpec{
		SizesBytes: sweep.SizesPow2(16, 32),
		CyclesNS:   sweep.CyclesRange(1, 2, experiments.CPUCycleNS),
		Assoc:      1,
		L1KB:       4,
		Refs:       20_000_000,
		Seed:       1,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	t.Run("fresh", func(t *testing.T) {
		stdout, stderr, code := captureRunLocal(t, func() int {
			return runLocal(ctx, spec, 0, 1, localOptions{})
		})
		if code != 1 {
			t.Errorf("exit status %d, want 1", code)
		}
		if n := strings.Count(stdout, "FAILED"); n != 4 {
			t.Errorf("table has %d FAILED rows, want 4:\n%s", n, stdout)
		}
		if want := "interrupted: 0 of 4 points done; use -checkpoint to make sweeps resumable"; !strings.Contains(stderr, want) {
			t.Errorf("log lacks %q:\n%s", want, stderr)
		}
	})

	t.Run("resume", func(t *testing.T) {
		// Journal the first point, simulated over a short trace.
		short := spec
		short.Refs = 20_000
		arena, closer, _, err := short.MaterializeArena(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer closer.Close()
		pt := spec.Points()[0]
		res, err := short.RunnerFor(arena).RunPoints([]sweep.Point{pt})
		if err != nil {
			t.Fatal(err)
		}
		ckpt := filepath.Join(t.TempDir(), "run.ckpt")
		j, err := checkpoint.Open(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(pt.String(), res[0].Run); err != nil {
			t.Fatal(err)
		}
		j.Close()

		stdout, stderr, code := captureRunLocal(t, func() int {
			return runLocal(ctx, spec, 0, 1, localOptions{gridOptions: gridOptions{ckptPath: ckpt, resume: true}})
		})
		if code != 1 {
			t.Errorf("exit status %d, want 1", code)
		}
		if f, c := strings.Count(stdout, "FAILED"), strings.Count(stdout, "ckpt"); f != 3 || c != 1 {
			t.Errorf("table has %d FAILED and %d ckpt rows, want 3 and 1:\n%s", f, c, stdout)
		}
		if want := "interrupted: 1 of 4 points done; rerun with -resume to continue"; !strings.Contains(stderr, want) {
			t.Errorf("log lacks %q:\n%s", want, stderr)
		}
	})
}

// TestRunLocalCheckpointInterrupted: a -checkpoint sweep interrupted
// mid-grid has journaled exactly the points its table reports done, since
// the table waits for the journal's committer to drain; -resume then
// simulates only the rest and prints the uninterrupted table.
func TestRunLocalCheckpointInterrupted(t *testing.T) {
	arena, closer, _, err := fig41Spec.MaterializeArena(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	runner := fig41Spec.RunnerFor(arena)
	runner.Parallelism = 1
	pts := fig41Spec.Points()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var simulated atomic.Int64
	run := func(ctx context.Context, pts []sweep.Point, opts sweep.Options) ([]sweep.Result, error) {
		add := opts.OnResult
		opts.OnResult = func(r sweep.Result) {
			add(r)
			if simulated.Add(1) == 7 {
				cancel()
			}
		}
		return runner.RunContext(ctx, pts, opts)
	}
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	stdout, stderr, code := captureRunLocal(t, func() int {
		return runGrid(ctx, pts, run, gridOptions{ckptPath: ckpt, csv: true})
	})
	if code != 1 || !strings.Contains(stderr, "interrupted: ") {
		t.Fatalf("exit status %d, want 1 after an interrupt; log:\n%s", code, stderr)
	}
	row := func(pt sweep.Point) string {
		return fmt.Sprintf("%s,%d,%d,", report.SizeLabel(pt.L2SizeBytes), pt.L2CycleNS/experiments.CPUCycleNS, pt.L2Assoc)
	}
	journal, err := checkpoint.LoadAs[cpu.Result](ckpt)
	if err != nil {
		t.Fatal(err)
	}
	journaled := map[string]bool{}
	for _, r := range journal.Records {
		journaled[r.Key] = true
	}
	done := 0
	for _, pt := range pts {
		i := strings.Index(stdout, "\n"+row(pt))
		if i < 0 {
			t.Fatalf("table lacks a row for %v:\n%s", pt, stdout)
		}
		ok := !strings.HasPrefix(stdout[i+1:], row(pt)+"-")
		if ok {
			done++
		}
		if ok != journaled[pt.String()] {
			t.Errorf("%v: reported done %v, journaled %v", pt, ok, journaled[pt.String()])
		}
	}
	if done == 0 || done == len(pts) || len(journal.Records) != done {
		t.Fatalf("%d of %d points done, %d journaled; want an interrupt mid-grid", done, len(pts), len(journal.Records))
	}
	if want := fmt.Sprintf("interrupted: %d of %d points done", done, len(pts)); !strings.Contains(stderr, want) {
		t.Errorf("log lacks %q:\n%s", want, stderr)
	}

	simulated.Store(-int64(len(pts))) // never reaches the interrupt again
	stdout, stderr, code = captureRunLocal(t, func() int {
		return runGrid(context.Background(), pts, run, gridOptions{ckptPath: ckpt, resume: true, csv: true})
	})
	if code != 0 {
		t.Fatalf("resume: exit status %d, log:\n%s", code, stderr)
	}
	if got := simulated.Load() + int64(len(pts)); got != int64(len(pts)-done) {
		t.Errorf("resume simulated %d points, want the %d not journaled", got, len(pts)-done)
	}
	if n := strings.Count(stdout, ",ckpt\n"); n != done {
		t.Errorf("resumed table has %d ckpt rows, want %d", n, done)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "fig41_20k.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.ReplaceAll(stdout, ",ckpt\n", ",ok\n"); got != string(want) {
		t.Errorf("resumed table differs from testdata/fig41_20k.csv:\n%s", stdout)
	}
}

// captureRunLocal runs f with stdout and the standard logger redirected,
// and returns what each received and f's exit status.
func captureRunLocal(t *testing.T, f func() int) (stdout, stderr string, code int) {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	var logged bytes.Buffer
	saved := os.Stdout
	os.Stdout = out
	log.SetOutput(&logged)
	code = f()
	os.Stdout = saved
	log.SetOutput(os.Stderr)
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b), logged.String(), code
}

func renderCSV(t *testing.T, results []sweep.Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := sweep.WriteTable(&buf, results, experiments.CPUCycleNS, true); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// fig41Spec is the Fig 4-1 grid (4 KB L1, L2 sizes 4–4096 KB, cycles
// 1–10) over the 20k-reference synthetic workload.
var fig41Spec = coord.JobSpec{
	SizesBytes: sweep.SizesPow2(4, 4096),
	CyclesNS:   sweep.CyclesRange(1, 10, experiments.CPUCycleNS),
	Assoc:      1,
	L1KB:       4,
	Refs:       20_000,
	Seed:       1,
}

// checkFig41Golden runs fig41Spec through run once per output format and
// compares stdout with the checked-in table and CSV. The goldens were
// generated by the engine that replayed the L2 tag array for every point,
// so they pin any later change to how replays are scheduled.
func checkFig41Golden(t *testing.T, run func(gridOptions) int) {
	for golden, asCSV := range map[string]bool{"fig41_20k.txt": false, "fig41_20k.csv": true} {
		t.Run(golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", golden))
			if err != nil {
				t.Fatal(err)
			}
			stdout, stderr, code := captureRunLocal(t, func() int {
				return run(gridOptions{csv: asCSV})
			})
			if code != 0 {
				t.Fatalf("exit status %d, log:\n%s", code, stderr)
			}
			if stdout != string(want) {
				t.Errorf("output differs from testdata/%s\ngot:\n%s\nwant:\n%s", golden, stdout, want)
			}
		})
	}
}

// TestRunLocalFig41Golden: a local sweep of fig41Spec prints the
// checked-in table and CSV.
func TestRunLocalFig41Golden(t *testing.T) {
	checkFig41Golden(t, func(g gridOptions) int {
		return runLocal(context.Background(), fig41Spec, 0, 1, localOptions{gridOptions: g})
	})
}

// TestRunServeFallbackFig41Golden: `sweep -serve` that no worker joins
// finishes the grid through its local fallback and prints the same table
// and CSV as a local sweep.
func TestRunServeFallbackFig41Golden(t *testing.T) {
	checkFig41Golden(t, func(g gridOptions) int {
		cfg := coord.Config{Job: fig41Spec, LocalFallbackAfter: 50 * time.Millisecond, Logf: log.Printf}
		return runServe(context.Background(), freeAddr(t), cfg, "", store.Security{}, g)
	})
}

// freeAddr returns a loopback address no one listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// TestRunServeMatchesRunLocal: `sweep -serve` on a loopback port with one
// in-process worker prints the CSV runLocal prints. Then a -checkpoint run
// of shard 0/2 followed by -resume through -serve with -shards 2 shows the
// journaled points as ckpt and leases only the coordinator's shard 1,
// which holds every other point.
func TestRunServeMatchesRunLocal(t *testing.T) {
	spec := coord.JobSpec{
		SizesBytes: sweep.SizesPow2(16, 64),
		CyclesNS:   sweep.CyclesRange(1, 2, experiments.CPUCycleNS),
		Assoc:      1,
		L1KB:       4,
		Refs:       20_000,
		Seed:       1,
	} // 6 points
	local := func(shardI, shardN int, g gridOptions) string {
		t.Helper()
		stdout, stderr, code := captureRunLocal(t, func() int {
			return runLocal(context.Background(), spec, shardI, shardN, localOptions{gridOptions: g})
		})
		if code != 0 {
			t.Fatalf("runLocal exit status %d, log:\n%s", code, stderr)
		}
		return stdout
	}
	served := func(g gridOptions) (stdout, stderr string) {
		t.Helper()
		addr := freeAddr(t)
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		cfg := coord.Config{Job: spec, Shards: 2, LocalFallbackAfter: time.Minute, Logf: log.Printf}
		joined := make(chan error, 1)
		stdout, stderr, code := captureRunLocal(t, func() int {
			go func() { joined <- runWorker(ctx, addr, workerOptions{id: "w", par: 1, cacheDir: t.TempDir()}) }()
			return runServe(ctx, addr, cfg, "", store.Security{}, g)
		})
		if code != 0 {
			t.Fatalf("runServe exit status %d, log:\n%s", code, stderr)
		}
		if err := <-joined; err != nil {
			t.Fatalf("worker: %v", err)
		}
		return stdout, stderr
	}

	want := local(0, 1, gridOptions{csv: true})
	if got, stderr := served(gridOptions{csv: true}); got != want {
		t.Errorf("-serve CSV differs from runLocal's:\n--- got ---\n%s--- want ---\n%s--- log ---\n%s", got, want, stderr)
	}

	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	local(0, 2, gridOptions{ckptPath: ckpt})
	got, stderr := served(gridOptions{ckptPath: ckpt, resume: true, csv: true})
	// Row i after the header is grid point i-1, and shard 0/2 journaled
	// the even points.
	rows := strings.Split(want, "\n")
	for i := 1; i < len(rows)-1; i += 2 {
		rows[i] = strings.TrimSuffix(rows[i], ",ok") + ",ckpt"
	}
	if resumed := strings.Join(rows, "\n"); got != resumed {
		t.Errorf("resumed -serve CSV:\n%s--- want ---\n%s", got, resumed)
	}
	if strings.Contains(stderr, "coord: shard 0 leased") || !strings.Contains(stderr, "coord: shard 1 leased") {
		t.Errorf("resume leased the wrong shards; log:\n%s", stderr)
	}
	set, err := checkpoint.Load(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Records) != 6 {
		t.Errorf("journal holds %d points after the resume, want 6", len(set.Records))
	}
}
