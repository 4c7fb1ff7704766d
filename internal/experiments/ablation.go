package experiments

import (
	"errors"
	"fmt"
	"io"

	"mlcache/internal/cache"
	"mlcache/internal/cpu"
	"mlcache/internal/mainmem"
	"mlcache/internal/memsys"
	"mlcache/internal/report"
	"mlcache/internal/trace"
)

// The ablations quantify the design decisions the paper asserts but does
// not plot: the effectiveness of write buffering (footnote 2 of §4), the
// choice of write policy, the L2 block size, next-block prefetching, and
// the value of a third level once memory gets slower (§6's prediction for
// future hierarchies).

// AblationRow is one configuration of an ablation study. Rows are
// simulated on the grid engine, so a row whose configuration shares its
// first level with another row's may be a replay: its Run then has empty
// PerPID and StallHist, which no table reads.
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

// ablationStudy declares one ablation table: its title and the labelled
// configurations it compares.
type ablationStudy struct {
	title   string
	configs []labelledConfig
}

type labelledConfig struct {
	label string
	cfg   memsys.Config
	// flush simulates the configuration with cpu.Config.FlushOnSwitch;
	// its label then gains the number of switches flushed.
	flush bool
}

// ablationStudies declares every study, in the order All lists them.
func ablationStudies() []ablationStudy {
	return []ablationStudy{
		writeBufferStudy(), writePolicyStudy(), l2BlockStudy(), prefetchStudy(),
		thirdLevelStudy(), flushStudy(), pageModeStudy(), tlbStudy(),
	}
}

// runStudies simulates every configuration of the studies over one arena,
// so configurations sharing a first level share one capture. The flushed
// configurations differ in their cpu.Config and run in a second sweep over
// the same arena.
func runStudies(arena *trace.Arena, opt Options, studies []ablationStudy) ([]AblationResult, error) {
	out := make([]AblationResult, len(studies))
	for i, s := range studies {
		out[i] = AblationResult{Title: s.title, Rows: make([]AblationRow, len(s.configs))}
	}
	type cell struct{ study, row int }
	for _, flush := range []bool{false, true} {
		var cfgs []memsys.Config
		var cells []cell
		for i, s := range studies {
			for j, c := range s.configs {
				if c.flush == flush {
					cfgs = append(cfgs, c.cfg)
					cells = append(cells, cell{i, j})
				}
			}
		}
		runs, err := simulate(arena, opt, cfgs, flush)
		var me *machineError
		if errors.As(err, &me) {
			c := cells[me.index]
			return nil, fmt.Errorf("%s / %s: %w", studies[c.study].title, studies[c.study].configs[c.row].label, me.err)
		}
		if err != nil {
			return nil, err
		}
		for i, run := range runs {
			c := cells[i]
			label := studies[c.study].configs[c.row].label
			if flush {
				label = fmt.Sprintf("%s (%d switches)", label, run.Switches)
			}
			out[c.study].Rows[c.row] = AblationRow{
				Label:   label,
				Run:     run,
				RelTime: run.RelTime,
				CPI:     run.CPI,
			}
		}
	}
	return out, nil
}

// baseConfig is the base machine with the 512 KB, 3-cycle L2 every
// ablation varies.
func baseConfig(mem mainmem.Config) memsys.Config {
	return BaseMachine(4, L2Config(512*1024, 3*CPUCycleNS, 1), mem)
}

// writeBufferStudy varies the write-buffer depth on the base machine. The
// paper: "the write effects are small because we are using write-back
// caches with a large amount of write buffering. The writes are mostly
// hidden between the read requests." Removing the buffers exposes them.
func writeBufferStudy() ablationStudy {
	s := ablationStudy{title: "write-buffer depth (base machine)"}
	for _, depth := range []int{-1, 1, 2, 4, 8} {
		cfg := baseConfig(mainmem.Base())
		cfg.WBDepth = depth
		label := fmt.Sprintf("depth %d", depth)
		if depth == -1 {
			label = "unbuffered"
		}
		s.configs = append(s.configs, labelledConfig{label: label, cfg: cfg})
	}
	return s
}

// writePolicyStudy compares write-back against write-through first-level
// data caches (with and without allocation).
func writePolicyStudy() ablationStudy {
	mk := func(label string, mutate func(*memsys.Config)) labelledConfig {
		cfg := baseConfig(mainmem.Base())
		mutate(&cfg)
		return labelledConfig{label: label, cfg: cfg}
	}
	return ablationStudy{title: "L1D write policy (base machine)", configs: []labelledConfig{
		mk("write-back", func(*memsys.Config) {}),
		mk("write-through, allocate", func(c *memsys.Config) {
			c.L1D.Cache.Write = cache.WriteThrough
		}),
		mk("write-through, no-allocate", func(c *memsys.Config) {
			c.L1D.Cache.Write = cache.WriteThrough
			c.L1D.Cache.Alloc = cache.NoWriteAllocate
		}),
	}}
}

// l2BlockStudy varies the L2 block size at fixed 512 KB capacity: longer
// blocks exploit spatial locality but raise the miss penalty (more bus
// beats) and can raise the miss ratio through prefetch pollution.
func l2BlockStudy() ablationStudy {
	s := ablationStudy{title: "L2 block size at 512KB (base machine)"}
	for _, block := range []int{16, 32, 64, 128} {
		cfg := baseConfig(mainmem.Base())
		cfg.Down[0].Cache.BlockBytes = block
		s.configs = append(s.configs, labelledConfig{label: fmt.Sprintf("%dB blocks", block), cfg: cfg})
	}
	return s
}

// prefetchStudy toggles next-block prefetching at each level of the base
// machine.
func prefetchStudy() ablationStudy {
	mk := func(label string, l1, l2 bool) labelledConfig {
		cfg := baseConfig(mainmem.Base())
		cfg.L1I.Prefetch = l1
		cfg.L1D.Prefetch = l1
		cfg.Down[0].Prefetch = l2
		return labelledConfig{label: label, cfg: cfg}
	}
	return ablationStudy{title: "next-block prefetch (base machine)", configs: []labelledConfig{
		mk("none", false, false),
		mk("L1 only", true, false),
		mk("L2 only", false, true),
		mk("L1 + L2", true, true),
	}}
}

// thirdLevelStudy compares two- and three-level hierarchies under the
// base and the 2x-slower memory: the paper's §6 — as the CPU–memory gap
// grows, deeper hierarchies win.
func thirdLevelStudy() ablationStudy {
	three := func(mem mainmem.Config) memsys.Config {
		cfg := BaseMachine(4, L2Config(64*1024, 2*CPUCycleNS, 1), mem)
		l3 := L2Config(2*1024*1024, 5*CPUCycleNS, 1)
		l3.Cache.Name = "L3"
		l3.Cache.BlockBytes = 64
		cfg.Down = append(cfg.Down, l3)
		return cfg
	}
	return ablationStudy{title: "hierarchy depth vs memory speed", configs: []labelledConfig{
		{label: "2-level, base memory", cfg: baseConfig(mainmem.Base())},
		{label: "3-level, base memory", cfg: three(mainmem.Base())},
		{label: "2-level, slow memory", cfg: baseConfig(mainmem.Slow())},
		{label: "3-level, slow memory", cfg: three(mainmem.Slow())},
	}}
}

// pageModeStudy compares the paper's flat memory model against page-mode
// DRAM (open-row hits complete in a third of the time), with and without
// write-buffer coalescing — two memory-system refinements the paper's era
// was adopting.
func pageModeStudy() ablationStudy {
	mk := func(label string, pageMode, coalesce bool) labelledConfig {
		mem := mainmem.Base()
		if pageMode {
			mem = mem.WithPageMode(2048, 60)
		}
		cfg := baseConfig(mem)
		cfg.WBCoalesce = coalesce
		return labelledConfig{label: label, cfg: cfg}
	}
	wt := func(label string, coalesce bool) labelledConfig {
		cfg := baseConfig(mainmem.Base())
		cfg.L1D.Cache.Write = cache.WriteThrough
		cfg.WBCoalesce = coalesce
		return labelledConfig{label: label, cfg: cfg}
	}
	return ablationStudy{title: "memory-system refinements (base machine)", configs: []labelledConfig{
		mk("flat memory (paper)", false, false),
		mk("page-mode DRAM", true, false),
		// Coalescing barely matters for write-back victims (distinct
		// blocks), but it is what makes write-through viable: repeated
		// stores to a block merge in the buffer.
		mk("coalescing buffers", false, true),
		mk("page-mode + coalescing", true, true),
		wt("write-through L1D", false),
		wt("write-through + coalescing", true),
	}}
}

// flushStudy compares the paper's physical (never-flushed) L1s against
// virtually-indexed L1s flushed at every context switch, on the
// multiprogramming workload.
func flushStudy() ablationStudy {
	return ablationStudy{title: "L1 flushing at context switches (base machine)", configs: []labelledConfig{
		{label: "physical L1 (no flush)", cfg: baseConfig(mainmem.Base())},
		{label: "flush on switch", cfg: baseConfig(mainmem.Base()), flush: true},
	}}
}

// tlbStudy adds address translation to the base machine at several TLB
// reaches. The paper's simulator runs on post-translation traces (no TLB);
// this quantifies what that omission is worth.
func tlbStudy() ablationStudy {
	s := ablationStudy{title: "TLB reach (base machine)"}
	for _, entries := range []int{0, 16, 64, 256} {
		cfg := baseConfig(mainmem.Base())
		cfg.TLB = memsys.TLBConfig{Entries: entries}
		label := fmt.Sprintf("%d-entry TLB", entries)
		if entries == 0 {
			label = "no TLB (paper)"
		}
		s.configs = append(s.configs, labelledConfig{label: label, cfg: cfg})
	}
	return s
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
