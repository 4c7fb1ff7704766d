package experiments

import (
	"strings"
	"testing"

	"mlcache/internal/mainmem"
	"mlcache/internal/sweep"
)

// studyAlone simulates one study over its own trace.
func studyAlone(t *testing.T, opt Options, s ablationStudy) AblationResult {
	t.Helper()
	arena, err := opt.arena()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := runStudies(arena, opt, []ablationStudy{s})
	if err != nil {
		t.Fatal(err)
	}
	return rs[0]
}

func TestAblateWriteBuffers(t *testing.T) {
	res := studyAlone(t, testOptions(), writeBufferStudy())
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	unbuffered := res.Rows[0].RelTime
	deep := res.Rows[len(res.Rows)-1].RelTime
	// The paper's footnote 2: buffering hides the writes. Removing it
	// must cost measurable time.
	if unbuffered <= deep {
		t.Errorf("unbuffered (%.4f) not slower than deep buffers (%.4f)", unbuffered, deep)
	}
	// Depth 4 (the paper's choice) captures nearly all of the benefit of
	// depth 8.
	d4, d8 := res.Rows[3].RelTime, res.Rows[4].RelTime
	if (d4-d8)/d8 > 0.02 {
		t.Errorf("depth 4 (%.4f) leaves >2%% on the table vs depth 8 (%.4f)", d4, d8)
	}
}

func TestAblateWritePolicy(t *testing.T) {
	res := studyAlone(t, testOptions(), writePolicyStudy())
	wb := res.Rows[0]
	for _, wt := range res.Rows[1:] {
		// Write-through multiplies downstream write traffic: every store
		// goes down instead of only dirty victims.
		if wt.Run.Mem.Down[0].Cache.WriteRefs <= wb.Run.Mem.Down[0].Cache.WriteRefs {
			t.Errorf("%s: L2 write refs %d not above write-back's %d",
				wt.Label, wt.Run.Mem.Down[0].Cache.WriteRefs, wb.Run.Mem.Down[0].Cache.WriteRefs)
		}
	}
}

func TestAblateL2Block(t *testing.T) {
	res := studyAlone(t, testOptions(), l2BlockStudy())
	// Larger L2 blocks must cut the L2 miss count on this spatially-local
	// workload (same capacity, fewer compulsory+capacity misses per byte).
	first := res.Rows[0].Run.Mem.Down[0].Cache.ReadMisses
	last := res.Rows[len(res.Rows)-1].Run.Mem.Down[0].Cache.ReadMisses
	if last >= first {
		t.Errorf("128B-block L2 misses (%d) not below 16B (%d)", last, first)
	}
}

func TestAblatePrefetch(t *testing.T) {
	res := studyAlone(t, testOptions(), prefetchStudy())
	none := res.Rows[0]
	l1 := res.Rows[1]
	if l1.Run.Mem.L1I.Prefetches == 0 {
		t.Error("L1 prefetch config issued no prefetches")
	}
	// Prefetching must reduce the L1 instruction miss ratio on this
	// run-structured workload (sequential ifetch runs).
	mNone := none.Run.Mem.L1I.Cache.LocalReadMissRatio()
	mL1 := l1.Run.Mem.L1I.Cache.LocalReadMissRatio()
	if mL1 >= mNone {
		t.Errorf("prefetch did not cut L1I miss ratio: %.4f -> %.4f", mNone, mL1)
	}
}

func TestAblateThirdLevel(t *testing.T) {
	res := studyAlone(t, testOptions(), thirdLevelStudy())
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// §6: the benefit of the third level grows as memory slows. Compare
	// the 3-level speedup under both memories.
	speedupBase := res.Rows[0].RelTime / res.Rows[1].RelTime
	speedupSlow := res.Rows[2].RelTime / res.Rows[3].RelTime
	if speedupSlow <= speedupBase*0.95 {
		t.Errorf("3-level speedup with slow memory (%.3f) not above base (%.3f)", speedupSlow, speedupBase)
	}
}

func TestRenderAblation(t *testing.T) {
	res := studyAlone(t, Options{Seed: 1, Refs: 40_000, Warmup: 8_000}, writePolicyStudy())
	var sb strings.Builder
	if err := RenderAblation(&sb, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "write-back") || !strings.Contains(sb.String(), "rel time") {
		t.Errorf("rendering incomplete:\n%s", sb.String())
	}
}

func TestAblateFlushOnSwitch(t *testing.T) {
	res := studyAlone(t, testOptions(), flushStudy())
	noFlush, flush := res.Rows[0], res.Rows[1]
	if flush.Run.Switches == 0 {
		t.Fatal("no context switches observed")
	}
	if noFlush.Run.Switches != 0 {
		t.Errorf("no-flush run counted %d switches", noFlush.Run.Switches)
	}
	// Flushing costs time (the write-back burst at each switch) and can
	// never help. With the base machine's direct-mapped L1s and long
	// quanta it adds almost no *misses* — each process's lines are evicted
	// by the other processes' traffic before it returns anyway — which is
	// itself a finding worth pinning.
	if flush.RelTime <= noFlush.RelTime {
		t.Errorf("flushing not slower: %.4f vs %.4f", flush.RelTime, noFlush.RelTime)
	}
	if flush.Run.Mem.L1GlobalReadMissRatio() < noFlush.Run.Mem.L1GlobalReadMissRatio() {
		t.Errorf("flushing lowered the L1 miss ratio")
	}
}

func TestAblatePageModeDRAM(t *testing.T) {
	res := studyAlone(t, testOptions(), pageModeStudy())
	flat, page := res.Rows[0], res.Rows[1]
	// Page-mode can only help (row hits shorten some reads).
	if page.RelTime > flat.RelTime {
		t.Errorf("page mode slower: %.4f vs %.4f", page.RelTime, flat.RelTime)
	}
	// Coalescing never increases memory write traffic.
	coal := res.Rows[2]
	if coal.Run.Mem.MemWrites > flat.Run.Mem.MemWrites {
		t.Errorf("coalescing raised memory writes: %d vs %d",
			coal.Run.Mem.MemWrites, flat.Run.Mem.MemWrites)
	}
}

func TestCoalescingRescuesWriteThrough(t *testing.T) {
	res := studyAlone(t, testOptions(), pageModeStudy())
	wt, wtCoal := res.Rows[4], res.Rows[5]
	// Coalescing absorbs repeated stores to hot blocks: less L2 write
	// traffic and no slower overall.
	if wtCoal.Run.Mem.Down[0].Cache.WriteRefs >= wt.Run.Mem.Down[0].Cache.WriteRefs {
		t.Errorf("coalescing did not cut write-through L2 traffic: %d vs %d",
			wtCoal.Run.Mem.Down[0].Cache.WriteRefs, wt.Run.Mem.Down[0].Cache.WriteRefs)
	}
	if wtCoal.RelTime > wt.RelTime {
		t.Errorf("coalescing slowed write-through: %.4f vs %.4f", wtCoal.RelTime, wt.RelTime)
	}
}

func TestAblateTLB(t *testing.T) {
	res := studyAlone(t, testOptions(), tlbStudy())
	none, small, big := res.Rows[0], res.Rows[1], res.Rows[2]
	if none.Run.Mem.TLB != nil {
		t.Error("no-TLB run has TLB stats")
	}
	if small.Run.Mem.TLB == nil || big.Run.Mem.TLB == nil {
		t.Fatal("TLB stats missing")
	}
	// Translation costs time; a bigger TLB costs less.
	if small.RelTime <= none.RelTime {
		t.Errorf("16-entry TLB free: %.4f vs %.4f", small.RelTime, none.RelTime)
	}
	if big.RelTime > small.RelTime {
		t.Errorf("64-entry TLB (%.4f) slower than 16-entry (%.4f)", big.RelTime, small.RelTime)
	}
	if big.Run.Mem.TLB.MissRatio() >= small.Run.Mem.TLB.MissRatio() {
		t.Errorf("bigger TLB did not cut the miss ratio: %.4f vs %.4f",
			big.Run.Mem.TLB.MissRatio(), small.Run.Mem.TLB.MissRatio())
	}
}

// TestStudyErrorNamesMachine: a machine that cannot be built fails its
// sweep with an error naming its study and label.
func TestStudyErrorNamesMachine(t *testing.T) {
	bad := baseConfig(mainmem.Base())
	bad.Down[0].Cache.Assoc = 3
	s := ablationStudy{title: "odd ways", configs: []labelledConfig{
		{label: "direct-mapped", cfg: baseConfig(mainmem.Base())},
		{label: "3-way", cfg: bad},
	}}
	opt := Options{Seed: 1, Refs: 3_000, Warmup: 600}
	arena, err := opt.arena()
	if err != nil {
		t.Fatal(err)
	}
	_, err = runStudies(arena, opt, []ablationStudy{s})
	if err == nil || !strings.HasPrefix(err.Error(), "odd ways / 3-way: ") {
		t.Errorf("error %v does not name the study and label", err)
	}
}

// TestSurfaceErrorNamesMachine: a surface machine that cannot be built
// fails with an error naming its configuration, not the index-encoded
// point the engine simulated it as.
func TestSurfaceErrorNamesMachine(t *testing.T) {
	opt := Options{Seed: 1, Refs: 3_000, Warmup: 600}
	grid := sweep.Grid{SizesBytes: []int64{16 * 1024}, CyclesNS: []int64{30}}
	_, err := NewContext(opt).Surface(4, 3, mainmem.Base(), grid)
	if err == nil {
		t.Fatal("a 3-way L2 surface built")
	}
	if msg := err.Error(); !strings.Contains(msg, "machine L1=4KB L2=16KB/30ns/3-way: cache L2: ") || strings.Contains(msg, "0KB/0ns/0-way") {
		t.Errorf("error %q does not name the 4 KB-L1, 16 KB/30 ns/3-way machine alone", msg)
	}
}
