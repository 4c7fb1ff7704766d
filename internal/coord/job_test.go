package coord

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mlcache/internal/synth"
	"mlcache/internal/trace"
)

// TestMaterializeArenaObservesCancellation: synthetic generation checks
// its context every cancelCheckRefs references, so loading a 10M-ref
// workload under a cancelled context returns at once with an error
// wrapping context.Canceled instead of generating 160 MB.
func TestMaterializeArenaObservesCancellation(t *testing.T) {
	spec := boundTestSpec()
	spec.Refs = 10_000_000
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	arena, _, _, err := spec.MaterializeArena(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want one wrapping context.Canceled", err)
	}
	if arena != nil {
		t.Errorf("cancelled load returned a %d-ref arena", arena.Len())
	}
}

// TestMaterializeArenaLoadsEveryKind: every workload kind loads the same
// references under the Refs cap: the synthetic generator, an .mlca
// artifact, a decoded binary file and a lenient decode of it.
func TestMaterializeArenaLoadsEveryKind(t *testing.T) {
	const refs, capped = 5000, 3000
	full, err := trace.Materialize(synth.PaperStream(7, refs))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mlca := filepath.Join(dir, "w.mlca")
	if err := trace.WriteArtifact(mlca, full); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "w.mlct")
	f, err := os.Create(bin)
	if err != nil {
		t.Fatal(err)
	}
	bw := trace.NewBinaryWriter(f)
	for _, r := range full.Refs() {
		if err := bw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	synthetic := boundTestSpec() // seed 7
	synthetic.Refs = capped
	file := func(path string, lenient int) JobSpec {
		s := synthetic
		s.TracePath, s.Lenient = path, lenient
		return s
	}
	for name, spec := range map[string]JobSpec{
		"synthetic": synthetic,
		"artifact":  file(mlca, 0),
		"decoded":   file(bin, 0),
		"lenient":   file(bin, -1),
	} {
		arena, closer, skipped, err := spec.MaterializeArena(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if skipped != 0 {
			t.Errorf("%s: skipped %d records of an intact trace", name, skipped)
		}
		if !reflect.DeepEqual(arena.Refs(), full.Refs()[:capped]) {
			t.Errorf("%s: arena of %d refs is not the first %d generated references", name, arena.Len(), capped)
		}
		if err := closer.Close(); err != nil {
			t.Errorf("%s: close: %v", name, err)
		}
	}
}
