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

var baseCfg = filepath.Join("..", "..", "configs", "base.cfg")

// writeArtifact writes the first refs references of the synthetic
// workload to an artifact file and returns its path.
func writeArtifact(t *testing.T, refs int64) string {
	t.Helper()
	arena, err := trace.Materialize(synth.PaperStream(1, refs))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.mlca")
	if err := trace.WriteArtifact(path, arena); err != nil {
		t.Fatal(err)
	}
	return path
}

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("mlcsim %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

// TestWarmupFollowsReferencesRead: the default warm-up is 20% of the
// references read, not of the -n cap, so a trace shorter than the cap
// reports what -n set to its length reports, and so does -n 0 (the whole
// file).
func TestWarmupFollowsReferencesRead(t *testing.T) {
	path := writeArtifact(t, 20_000)
	def := runOK(t, "-config", baseCfg, "-trace", path)
	for _, n := range []string{"20000", "0"} {
		if got := runOK(t, "-config", baseCfg, "-trace", path, "-n", n); got != def {
			t.Errorf("-n %s:\n%s\ndefault -n:\n%s", n, got, def)
		}
	}
	var instructions int64
	if _, err := fmt.Sscanf(def, "instructions: %d", &instructions); err != nil || instructions == 0 {
		t.Errorf("nothing measured (%v):\n%s", err, def)
	}
}

// TestWarmupCoveringTraceRefused: an explicit warm-up that leaves no
// reference to measure is an error, not an empty report.
func TestWarmupCoveringTraceRefused(t *testing.T) {
	path := writeArtifact(t, 20_000)
	err := run([]string{"-config", baseCfg, "-trace", path, "-warmup", "20000"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-warmup 20000") {
		t.Errorf("warm-up over the whole trace: %v", err)
	}
	runOK(t, "-config", baseCfg, "-trace", path, "-warmup", "19999")
}

// TestSyntheticNeedsReferences: -synth with -n below 1 is refused with an
// error naming -n, not simulated as an empty workload.
func TestSyntheticNeedsReferences(t *testing.T) {
	for _, n := range []string{"0", "-5"} {
		err := run([]string{"-config", baseCfg, "-synth", "-n", n}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "-n "+n) {
			t.Errorf("-synth -n %s: %v", n, err)
		}
	}
	runOK(t, "-config", baseCfg, "-synth", "-n", "2000")
}

// TestEmptyTraceRefused: a trace that yields no references — an empty
// file, or a lenient load that skipped every record — is an error naming
// the trace, not an all-zero simulation.
func TestEmptyTraceRefused(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.trc")
	garbage := filepath.Join(dir, "garbage.trc")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(garbage, []byte("not a record\nnor this\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-trace", empty},
		{"-trace", garbage, "-lenient", "-1"},
	} {
		var out bytes.Buffer
		err := run(append([]string{"-config", baseCfg}, args...), &out)
		if err == nil || !strings.Contains(err.Error(), args[1]) || !strings.Contains(err.Error(), "no references") {
			t.Errorf("mlcsim %s: error %v, output:\n%s", strings.Join(args, " "), err, out.String())
		}
	}
}
