package experiments

import (
	"fmt"
	"io"

	"mlcache/internal/cache"
	"mlcache/internal/cpu"
	"mlcache/internal/mainmem"
	"mlcache/internal/memsys"
	"mlcache/internal/report"
)

// The ablations quantify the design decisions the paper asserts but does
// not plot: the effectiveness of write buffering (footnote 2 of §4), the
// choice of write policy, the L2 block size, next-block prefetching, and
// the value of a third level once memory gets slower (§6's prediction for
// future hierarchies).

// AblationRow is one configuration of an ablation study.
type AblationRow struct {
	Label   string
	Run     cpu.Result
	RelTime float64
	CPI     float64
}

// AblationResult is a labelled list of configurations and outcomes.
type AblationResult struct {
	Title string
	Rows  []AblationRow
}

func runConfigs(opt Options, title string, configs []struct {
	label string
	cfg   memsys.Config
}) (AblationResult, error) {
	res := AblationResult{Title: title}
	arena, err := opt.arena()
	if err != nil {
		return res, err
	}
	for _, c := range configs {
		h, err := memsys.New(c.cfg)
		if err != nil {
			return res, fmt.Errorf("%s / %s: %w", title, c.label, err)
		}
		run, err := cpu.Run(h, arena.Cursor(), opt.CPU())
		if err != nil {
			return res, fmt.Errorf("%s / %s: %w", title, c.label, err)
		}
		res.Rows = append(res.Rows, AblationRow{
			Label:   c.label,
			Run:     run,
			RelTime: run.RelTime,
			CPI:     run.CPI,
		})
	}
	return res, nil
}

type labelledConfig = struct {
	label string
	cfg   memsys.Config
}

// AblateWriteBuffers varies the write-buffer depth on the base machine.
// The paper: "the write effects are small because we are using write-back
// caches with a large amount of write buffering. The writes are mostly
// hidden between the read requests." Removing the buffers exposes them.
func AblateWriteBuffers(opt Options) (AblationResult, error) {
	var configs []labelledConfig
	for _, depth := range []int{-1, 1, 2, 4, 8} {
		cfg := BaseMachine(4, L2Config(512*1024, 3*CPUCycleNS, 1), mainmem.Base())
		cfg.WBDepth = depth
		label := fmt.Sprintf("depth %d", depth)
		if depth == -1 {
			label = "unbuffered"
		}
		configs = append(configs, labelledConfig{label, cfg})
	}
	return runConfigs(opt, "write-buffer depth (base machine)", configs)
}

// AblateWritePolicy compares write-back against write-through first-level
// data caches (with and without allocation).
func AblateWritePolicy(opt Options) (AblationResult, error) {
	mk := func(label string, mutate func(*memsys.Config)) labelledConfig {
		cfg := BaseMachine(4, L2Config(512*1024, 3*CPUCycleNS, 1), mainmem.Base())
		mutate(&cfg)
		return labelledConfig{label, cfg}
	}
	configs := []labelledConfig{
		mk("write-back", func(*memsys.Config) {}),
		mk("write-through, allocate", func(c *memsys.Config) {
			c.L1D.Cache.Write = cache.WriteThrough
		}),
		mk("write-through, no-allocate", func(c *memsys.Config) {
			c.L1D.Cache.Write = cache.WriteThrough
			c.L1D.Cache.Alloc = cache.NoWriteAllocate
		}),
	}
	return runConfigs(opt, "L1D write policy (base machine)", configs)
}

// AblateL2Block varies the L2 block size at fixed 512 KB capacity: longer
// blocks exploit spatial locality but raise the miss penalty (more bus
// beats) and can raise the miss ratio through prefetch pollution.
func AblateL2Block(opt Options) (AblationResult, error) {
	var configs []labelledConfig
	for _, block := range []int{16, 32, 64, 128} {
		l2 := L2Config(512*1024, 3*CPUCycleNS, 1)
		l2.Cache.BlockBytes = block
		cfg := BaseMachine(4, l2, mainmem.Base())
		configs = append(configs, labelledConfig{fmt.Sprintf("%dB blocks", block), cfg})
	}
	return runConfigs(opt, "L2 block size at 512KB (base machine)", configs)
}

// AblatePrefetch toggles next-block prefetching at each level of the base
// machine.
func AblatePrefetch(opt Options) (AblationResult, error) {
	mk := func(label string, l1, l2 bool) labelledConfig {
		cfg := BaseMachine(4, L2Config(512*1024, 3*CPUCycleNS, 1), mainmem.Base())
		cfg.L1I.Prefetch = l1
		cfg.L1D.Prefetch = l1
		cfg.Down[0].Prefetch = l2
		return labelledConfig{label, cfg}
	}
	configs := []labelledConfig{
		mk("none", false, false),
		mk("L1 only", true, false),
		mk("L2 only", false, true),
		mk("L1 + L2", true, true),
	}
	return runConfigs(opt, "next-block prefetch (base machine)", configs)
}

// AblateThirdLevel compares two- and three-level hierarchies under the
// base and the 2x-slower memory: the paper's §6 — as the CPU–memory gap
// grows, deeper hierarchies win.
func AblateThirdLevel(opt Options) (AblationResult, error) {
	two := func(mem mainmem.Config) memsys.Config {
		return BaseMachine(4, L2Config(512*1024, 3*CPUCycleNS, 1), mem)
	}
	three := func(mem mainmem.Config) memsys.Config {
		cfg := BaseMachine(4, L2Config(64*1024, 2*CPUCycleNS, 1), mem)
		l3 := L2Config(2*1024*1024, 5*CPUCycleNS, 1)
		l3.Cache.Name = "L3"
		l3.Cache.BlockBytes = 64
		cfg.Down = append(cfg.Down, l3)
		return cfg
	}
	configs := []labelledConfig{
		{"2-level, base memory", two(mainmem.Base())},
		{"3-level, base memory", three(mainmem.Base())},
		{"2-level, slow memory", two(mainmem.Slow())},
		{"3-level, slow memory", three(mainmem.Slow())},
	}
	return runConfigs(opt, "hierarchy depth vs memory speed", configs)
}

// AblatePageModeDRAM compares the paper's flat memory model against
// page-mode DRAM (open-row hits complete in a third of the time), with and
// without write-buffer coalescing — two memory-system refinements the
// paper's era was adopting.
func AblatePageModeDRAM(opt Options) (AblationResult, error) {
	mk := func(label string, pageMode, coalesce bool) labelledConfig {
		mem := mainmem.Base()
		if pageMode {
			mem = mem.WithPageMode(2048, 60)
		}
		cfg := BaseMachine(4, L2Config(512*1024, 3*CPUCycleNS, 1), mem)
		cfg.WBCoalesce = coalesce
		return labelledConfig{label, cfg}
	}
	wt := func(label string, coalesce bool) labelledConfig {
		cfg := BaseMachine(4, L2Config(512*1024, 3*CPUCycleNS, 1), mainmem.Base())
		cfg.L1D.Cache.Write = cache.WriteThrough
		cfg.WBCoalesce = coalesce
		return labelledConfig{label, cfg}
	}
	configs := []labelledConfig{
		mk("flat memory (paper)", false, false),
		mk("page-mode DRAM", true, false),
		// Coalescing barely matters for write-back victims (distinct
		// blocks), but it is what makes write-through viable: repeated
		// stores to a block merge in the buffer.
		mk("coalescing buffers", false, true),
		mk("page-mode + coalescing", true, true),
		wt("write-through L1D", false),
		wt("write-through + coalescing", true),
	}
	return runConfigs(opt, "memory-system refinements (base machine)", configs)
}

// AblateFlushOnSwitch compares the paper's physical (never-flushed) L1s
// against virtually-indexed L1s flushed at every context switch, on the
// multiprogramming workload.
func AblateFlushOnSwitch(opt Options) (AblationResult, error) {
	res := AblationResult{Title: "L1 flushing at context switches (base machine)"}
	arena, err := opt.arena()
	if err != nil {
		return res, err
	}
	for _, flush := range []bool{false, true} {
		h, err := memsys.New(BaseMachine(4, L2Config(512*1024, 3*CPUCycleNS, 1), mainmem.Base()))
		if err != nil {
			return res, err
		}
		cpuCfg := opt.CPU()
		cpuCfg.FlushOnSwitch = flush
		run, err := cpu.Run(h, arena.Cursor(), cpuCfg)
		if err != nil {
			return res, err
		}
		label := "physical L1 (no flush)"
		if flush {
			label = fmt.Sprintf("flush on switch (%d switches)", run.Switches)
		}
		res.Rows = append(res.Rows, AblationRow{
			Label:   label,
			Run:     run,
			RelTime: run.RelTime,
			CPI:     run.CPI,
		})
	}
	return res, nil
}

// AblateTLB adds address translation to the base machine at several TLB
// reaches. The paper's simulator runs on post-translation traces (no TLB);
// this quantifies what that omission is worth.
func AblateTLB(opt Options) (AblationResult, error) {
	var configs []labelledConfig
	for _, entries := range []int{0, 16, 64, 256} {
		cfg := BaseMachine(4, L2Config(512*1024, 3*CPUCycleNS, 1), mainmem.Base())
		cfg.TLB = memsys.TLBConfig{Entries: entries}
		label := fmt.Sprintf("%d-entry TLB", entries)
		if entries == 0 {
			label = "no TLB (paper)"
		}
		configs = append(configs, labelledConfig{label, cfg})
	}
	return runConfigs(opt, "TLB reach (base machine)", configs)
}

// RenderAblation renders an ablation table.
func RenderAblation(w io.Writer, res AblationResult) error {
	fmt.Fprintf(w, "Ablation: %s\n\n", res.Title)
	t := report.NewTable("configuration", "rel time", "CPI", "L1 miss", "mem reads", "mem writes")
	for _, row := range res.Rows {
		t.AddRow(
			row.Label,
			fmt.Sprintf("%.4f", row.RelTime),
			fmt.Sprintf("%.3f", row.CPI),
			report.Ratio(row.Run.Mem.L1GlobalReadMissRatio()),
			fmt.Sprintf("%d", row.Run.Mem.MemReads),
			fmt.Sprintf("%d", row.Run.Mem.MemWrites),
		)
	}
	return t.Render(w)
}
