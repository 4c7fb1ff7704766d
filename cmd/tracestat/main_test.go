package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlcache/internal/synth"
	"mlcache/internal/trace"
)

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("tracestat %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

// TestProbeWarmupFollowsReferencesRead: the probe caches reset after 20%
// of the references read, not of the -n cap, so a trace shorter than the
// cap reports what -n set to its length reports, and so does -n 0 (the
// whole file). The probes then count exactly the reads after the warm-up.
func TestProbeWarmupFollowsReferencesRead(t *testing.T) {
	arena, err := trace.Materialize(synth.PaperStream(1, 20_000))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.mlca")
	if err := trace.WriteArtifact(path, arena); err != nil {
		t.Fatal(err)
	}
	def := runOK(t, "-trace", path)
	for _, n := range []string{"20000", "0"} {
		if got := runOK(t, "-trace", path, "-n", n); got != def {
			t.Errorf("-n %s:\n%s\ndefault -n:\n%s", n, got, def)
		}
	}
	var reads int
	for _, r := range arena.Refs()[4000:] {
		if r.Kind.IsRead() {
			reads++
		}
	}
	want := fmt.Sprintf("measured after 4000-reference warm-up\n\n%-10s %12s %12s %10s\n%-10s %12d ",
		"cache", "read refs", "read misses", "miss ratio", "4KB", reads)
	if !strings.Contains(def, want) {
		t.Errorf("want the 4KB probe to count the %d reads after a 4000-reference warm-up:\n%s", reads, def)
	}
}

// TestEmptyWorkloadRefused: a synthetic -n below 1 and a trace file that
// holds no references are errors, not a report of NaN percentages.
func TestEmptyWorkloadRefused(t *testing.T) {
	for _, n := range []string{"0", "-5"} {
		err := run([]string{"-n", n}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "-n "+n) {
			t.Errorf("-n %s: %v", n, err)
		}
	}
	empty := filepath.Join(t.TempDir(), "empty.trc")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"0", "100"} {
		err := run([]string{"-trace", empty, "-n", n}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "no references") {
			t.Errorf("empty trace, -n %s: %v", n, err)
		}
	}
}

// TestProcsBounded: -procs takes 1 to 4 processes of the synthetic
// workload, or 0 for all of them; anything else is an error, not a panic
// or a silent default.
func TestProcsBounded(t *testing.T) {
	for _, p := range []string{"-1", "5", "10"} {
		err := run([]string{"-procs", p, "-n", "1000"}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "-procs "+p) {
			t.Errorf("-procs %s: %v", p, err)
		}
	}
	for _, p := range []string{"0", "1", "4"} {
		runOK(t, "-procs", p, "-n", "1000", "-max", "8")
	}
}
