// Resume across shard boundaries: a checkpoint journal knows nothing about
// sharding — it records point keys — so a journal written by one process
// layout must resume correctly under another. The critical case is a
// journal that covers only a strict subset of one shard of a sharded grid
// (shard boundaries ≠ checkpoint boundaries): resume must skip exactly the
// journaled points of that shard, re-simulate the rest, and assemble a
// result set identical to an uninterrupted run.
package checkpoint_test

import (
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	"mlcache/internal/cache"
	"mlcache/internal/checkpoint"
	"mlcache/internal/cpu"
	"mlcache/internal/mainmem"
	"mlcache/internal/memsys"
	"mlcache/internal/sweep"
	"mlcache/internal/synth"
	"mlcache/internal/trace"
)

func resumeTestRunner(t *testing.T) sweep.Runner {
	arena, err := trace.Materialize(synth.PaperStream(1, 20000))
	if err != nil {
		t.Fatal(err)
	}
	l1 := func(name string) memsys.LevelConfig {
		return memsys.LevelConfig{
			Cache: cache.Config{
				Name: name, SizeBytes: 2 * 1024, BlockBytes: 16, Assoc: 1,
				Repl: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
			},
			CycleNS: 10,
		}
	}
	return sweep.Runner{
		Configure: func(pt sweep.Point) memsys.Config {
			return memsys.Config{
				CPUCycleNS: 10,
				SplitL1:    true,
				L1I:        l1("L1I"),
				L1D:        l1("L1D"),
				Down: []memsys.LevelConfig{{
					Cache: cache.Config{
						Name: "L2", SizeBytes: pt.L2SizeBytes, BlockBytes: 32, Assoc: pt.L2Assoc,
						Repl: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
					},
					CycleNS: pt.L2CycleNS,
				}},
				Memory: mainmem.Base(),
			}
		},
		Arena: arena,
		CPU:   cpu.Config{CycleNS: 10, WarmupRefs: 4000},
	}
}

func TestResumeJournalCoversSubsetOfShard(t *testing.T) {
	// A 4×3 grid split into 3 shards; shard 1 holds 4 of the 12 points.
	var grid []sweep.Point
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			grid = append(grid, sweep.Point{
				L2SizeBytes: int64(8*1024) << i,
				L2CycleNS:   int64(10 * (j + 1)),
				L2Assoc:     1,
			})
		}
	}
	shard := sweep.Shard(grid, 1, 3)
	if len(shard) != 4 {
		t.Fatalf("shard 1/3 of 12 points has %d points, want 4", len(shard))
	}

	r := resumeTestRunner(t)
	r.Parallelism = 1

	// Reference: the shard simulated end to end with no journal.
	want, err := r.RunContext(context.Background(), shard, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Journal a strict subset of the shard — points 0 and 2 — as an
	// interrupted earlier run would have.
	path := filepath.Join(t.TempDir(), "partial.ckpt")
	j, err := checkpoint.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	journaled := map[string]bool{}
	for _, i := range []int{0, 2} {
		if err := j.Append(want[i].Point.String(), want[i].Run); err != nil {
			t.Fatal(err)
		}
		journaled[want[i].Point.String()] = true
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume: load the journal and run the same shard, skipping journaled
	// points — exactly the cmd/sweep -resume path.
	set, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if set.Dropped != 0 {
		t.Fatalf("clean journal reported %d dropped records", set.Dropped)
	}
	if set.Len() != 2 {
		t.Fatalf("journal holds %d records, want 2", set.Len())
	}
	got, err := r.RunContext(context.Background(), shard, sweep.Options{
		Skip: func(pt sweep.Point) bool { return set.Has(pt.String()) },
	})
	if err != nil {
		t.Fatal(err)
	}

	for i := range shard {
		key := shard[i].String()
		if journaled[key] != got[i].Skipped {
			t.Errorf("point %v: skipped=%v, journaled=%v", shard[i], got[i].Skipped, journaled[key])
		}
		run := got[i].Run
		if got[i].Skipped {
			// The resumed run fills skipped points from the journal payload.
			raw := set.Records[key]
			if err := json.Unmarshal(raw, &run); err != nil {
				t.Fatalf("point %v: journal payload: %v", shard[i], err)
			}
		} else if got[i].Err != nil {
			t.Fatalf("point %v: %v", shard[i], got[i].Err)
		}
		if run.TimeNS != want[i].Run.TimeNS || run.RelTime != want[i].Run.RelTime {
			t.Errorf("point %v: resumed TimeNS=%d RelTime=%v, want TimeNS=%d RelTime=%v",
				shard[i], run.TimeNS, run.RelTime, want[i].Run.TimeNS, want[i].Run.RelTime)
		}
	}

	// The union — journal payloads plus freshly simulated points — must
	// cover the shard exactly once: no point both journaled and re-run, no
	// point missing.
	var fresh int
	for _, res := range got {
		if res.OK() {
			fresh++
		}
	}
	if fresh != len(shard)-len(journaled) {
		t.Errorf("re-simulated %d points, want %d", fresh, len(shard)-len(journaled))
	}
}
