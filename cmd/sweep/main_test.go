package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"mlcache/internal/coord"
	"mlcache/internal/experiments"
	"mlcache/internal/store"
	"mlcache/internal/sweep"
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

// TestRunWorkerColdThenWarm joins runWorker to an in-process coordinator
// that names its trace by digest alone. The cold run fetches the
// artifact once; a second run against a fresh coordinator, over the same
// -artifact-cache directory, fetches nothing. Both merged CSVs equal a
// local run, and the cache holds exactly the one committed object.
func TestRunWorkerColdThenWarm(t *testing.T) {
	arena, err := trace.Materialize(experiments.Options{Seed: 1, Refs: 20000}.Stream())
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
	spec := coord.JobSpec{
		SizesBytes: []int64{8192, 32768},
		CyclesNS:   []int64{2 * experiments.CPUCycleNS, 3 * experiments.CPUCycleNS},
		Assoc:      1,
		L1KB:       4,
	}
	local := spec
	local.TracePath = path
	want := renderCSV(t, func() []sweep.Result {
		runner, res, err := local.NewRunner()
		if err != nil {
			t.Fatal(err)
		}
		defer res.Close()
		results, err := runner.RunContext(context.Background(), local.Points(), sweep.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return results
	}())
	dist := spec
	dist.ArtifactDigest = d.String()
	dist.ArtifactCRC = crc

	cacheDir := t.TempDir()
	var gets atomic.Int64
	run := func(step string) {
		t.Helper()
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
		go c.Run(ctx)
		if err := runWorker(ctx, srv.URL, workerOptions{id: "w", par: 1, cacheDir: cacheDir}); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if got := renderCSV(t, c.Results()); got != want {
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

func renderCSV(t *testing.T, results []sweep.Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := sweep.WriteTable(&buf, results, experiments.CPUCycleNS, true); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}
