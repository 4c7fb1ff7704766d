package sweep_test

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"mlcache/internal/cache"
	"mlcache/internal/coord"
	"mlcache/internal/experiments"
	"mlcache/internal/memsys"
	"mlcache/internal/sweep"
	"mlcache/internal/synth"
	"mlcache/internal/trace"
)

const fig41Refs = 30_000

// fig41Spec is the paper's Fig 4-1 grid (11 L2 sizes × 10 cycle times on
// the base machine) as cmd/sweep builds it, over the synthetic workload.
func fig41Spec() coord.JobSpec {
	return coord.JobSpec{
		SizesBytes: sweep.SizesPow2(4, 4096),
		CyclesNS:   sweep.CyclesRange(1, 10, experiments.CPUCycleNS),
		Assoc:      1,
		L1KB:       4,
		Refs:       fig41Refs,
		Seed:       1,
	}
}

// matchOracle runs pts through the planner and through the oracle, requires
// byte-equal tables and CSVs, and returns the planner's tag-script counts.
func matchOracle(t *testing.T, runner sweep.Runner, pts []sweep.Point) sweep.TagCounts {
	t.Helper()
	got, counts, err := sweep.RunCounted(runner, context.Background(), pts, sweep.Options{})
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
	return counts
}

// TestFig41GridMatchesOracle runs the Fig 4-1 grid through the job spec
// cmd/sweep builds, over an .mlca artifact and over the synthetic
// workload. Both the table and the CSV must be byte-equal to the oracle's.
// The split write-back base machine never diverges from a tag script, so
// every member but the 11 tag pivots (one per L2 size) plays one.
func TestFig41GridMatchesOracle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mix.mlca")
	arena, err := trace.Materialize(synth.PaperStream(2, fig41Refs))
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteArtifact(path, arena); err != nil {
		t.Fatal(err)
	}
	synthetic := fig41Spec()
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
			counts := matchOracle(t, spec.RunnerFor(arena), pts)
			if counts.Demoted != 0 || counts.Played != int64(len(pts)-11) {
				t.Errorf("tag scripts: %d played, %d demoted; want %d played, 0 demoted", counts.Played, counts.Demoted, len(pts)-11)
			}
		})
	}
}

// TestFig41DivergingGridsMatchOracle: with a write-through L1D or a
// unified L1, timing reorders every member's L2 reads and writes. Each tag
// group's probe diverges and is demoted, no other member plays, and the
// tables still equal the oracle's.
func TestFig41DivergingGridsMatchOracle(t *testing.T) {
	spec := fig41Spec()
	arena, closer, _, err := spec.MaterializeArena(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	pts := spec.Points()
	for name, mutate := range map[string]func(*memsys.Config){
		"write-through L1D": func(c *memsys.Config) { c.L1D.Cache.Write = cache.WriteThrough },
		"unified L1": func(c *memsys.Config) {
			c.SplitL1 = false
			c.L1 = c.L1D
			c.L1.Cache.Name = "L1"
			c.L1.Cache.SizeBytes *= 2
			c.L1I, c.L1D = memsys.LevelConfig{}, memsys.LevelConfig{}
		},
	} {
		t.Run(name, func(t *testing.T) {
			runner := spec.RunnerFor(arena)
			base := runner.Configure
			runner.Configure = func(pt sweep.Point) memsys.Config {
				cfg := base(pt)
				mutate(&cfg)
				return cfg
			}
			counts := matchOracle(t, runner, pts)
			if counts.Played != 0 || counts.Demoted != 11 {
				t.Errorf("tag scripts: %d played, %d demoted; want 0 played, 11 demoted (one probe per L2 size)", counts.Played, counts.Demoted)
			}
		})
	}
}
