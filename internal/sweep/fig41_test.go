package sweep_test

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"mlcache/internal/coord"
	"mlcache/internal/experiments"
	"mlcache/internal/sweep"
	"mlcache/internal/synth"
	"mlcache/internal/trace"
)

// TestFig41GridMatchesOracle runs the paper's Fig 4-1 grid (11 L2 sizes ×
// 10 cycle times on the base machine) through the job spec cmd/sweep
// builds, over an .mlca artifact and over the synthetic workload. Both the
// table and the CSV must be byte-equal to the oracle's.
func TestFig41GridMatchesOracle(t *testing.T) {
	const refs = 30_000
	path := filepath.Join(t.TempDir(), "mix.mlca")
	arena, err := trace.Materialize(synth.PaperStream(2, refs))
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteArtifact(path, arena); err != nil {
		t.Fatal(err)
	}
	synthetic := coord.JobSpec{
		SizesBytes: sweep.SizesPow2(4, 4096),
		CyclesNS:   sweep.CyclesRange(1, 10, experiments.CPUCycleNS),
		Assoc:      1,
		L1KB:       4,
		Refs:       refs,
		Seed:       1,
	}
	artifact := synthetic
	artifact.TracePath, artifact.Refs = path, 0
	for name, spec := range map[string]coord.JobSpec{"artifact": artifact, "synthetic": synthetic} {
		t.Run(name, func(t *testing.T) {
			pts := spec.Points()
			if len(pts) != 110 {
				t.Fatalf("grid has %d points, want the 110 of Fig 4-1", len(pts))
			}
			arena, closer, _, err := spec.MaterializeArena(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			defer closer.Close()
			runner := spec.RunnerFor(arena)
			got, err := runner.RunContext(context.Background(), pts, sweep.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := sweep.SimulateEach(t, runner, pts)
			for _, asCSV := range []bool{false, true} {
				var g, w bytes.Buffer
				if err := sweep.WriteTable(&g, got, experiments.CPUCycleNS, asCSV); err != nil {
					t.Fatal(err)
				}
				if err := sweep.WriteTable(&w, want, experiments.CPUCycleNS, asCSV); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(g.Bytes(), w.Bytes()) {
					t.Errorf("csv=%v: planner output differs from the oracle\nplanner:\n%s\noracle:\n%s", asCSV, g.Bytes(), w.Bytes())
				}
			}
		})
	}
}
