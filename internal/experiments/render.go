package experiments

import (
	"fmt"
	"io"
	"sort"

	"mlcache/internal/contour"
	"mlcache/internal/mainmem"
	"mlcache/internal/report"
)

// Experiment is one regenerable paper artifact.
type Experiment struct {
	ID    string // "3-1", "4-2", "derived", ...
	Title string
	Run   func(*Context, io.Writer) error
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"3-1", "L2 miss ratios, 4KB L1 (Figure 3-1)", runFig3(4)},
		{"3-2", "L2 miss ratios, 32KB L1 (Figure 3-2)", runFig3(32)},
		{"4-1", "L2 speed-size tradeoff, 4KB L1 (Figure 4-1)", runFig41},
		{"4-2", "Lines of constant performance, 4KB L1 (Figure 4-2)", runFig4Contours(4, mainmem.Base(), "base memory")},
		{"4-3", "Lines of constant performance, 32KB L1 (Figure 4-3)", runFig4Contours(32, mainmem.Base(), "base memory")},
		{"4-4", "Lines of constant performance, slow main memory (Figure 4-4)", runFig4Contours(4, mainmem.Slow(), "2x slower memory")},
		{"5-1", "Set size 2 break-even times (Figure 5-1)", runFig5(2)},
		{"5-2", "Set size 4 break-even times (Figure 5-2)", runFig5(4)},
		{"5-3", "Set size 8 break-even times (Figure 5-3)", runFig5(8)},
		{"derived", "Derived scalar claims (§4-§6)", runDerived},
		{"abl-wbuf", "Ablation: write-buffer depth (§4 footnote 2)", runAblation(writeBufferStudy)},
		{"abl-policy", "Ablation: L1D write policy", runAblation(writePolicyStudy)},
		{"abl-block", "Ablation: L2 block size", runAblation(l2BlockStudy)},
		{"abl-prefetch", "Ablation: next-block prefetch", runAblation(prefetchStudy)},
		{"abl-3level", "Ablation: hierarchy depth vs memory speed (§6)", runAblation(thirdLevelStudy)},
		{"abl-flush", "Ablation: L1 flushing at context switches", runAblation(flushStudy)},
		{"abl-dram", "Ablation: page-mode DRAM and write coalescing", runAblation(pageModeStudy)},
		{"abl-tlb", "Ablation: TLB reach and walk cost", runAblation(tlbStudy)},
		{"l1opt", "Optimal L1 size vs L2 cycle time (§6)", runL1Size},
		{"model-check", "Equation 1 vs timing simulation", runModelCheck},
	}
}

func runAblation(study func() ablationStudy) func(*Context, io.Writer) error {
	return func(ctx *Context, w io.Writer) error {
		res, err := ctx.ablation(study().title)
		if err != nil {
			return err
		}
		return RenderAblation(w, res)
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs lists all experiment ids.
func IDs() []string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

func runFig3(l1KB int) func(*Context, io.Writer) error {
	return func(ctx *Context, w io.Writer) error {
		res, err := ctx.MissRatios(l1KB)
		if err != nil {
			return err
		}
		return RenderMissRatios(w, res)
	}
}

// RenderMissRatios renders a Figure 3 table.
func RenderMissRatios(w io.Writer, res MissRatioResult) error {
	fmt.Fprintf(w, "L2 read miss ratios, %dKB split L1 (local | global | solo)\n", res.L1TotalKB)
	fmt.Fprintf(w, "L1 global read miss ratio: %s\n\n", report.Ratio(res.L1GlobalMiss))
	t := report.NewTable("L2 KB", "local", "global", "solo", "global/solo")
	for _, row := range res.Rows {
		ratio := "-"
		if row.Solo > 0 {
			ratio = fmt.Sprintf("%.2f", row.Global/row.Solo)
		}
		t.AddRow(
			report.SizeLabel(row.L2SizeBytes),
			report.Ratio(row.Local),
			report.Ratio(row.Global),
			report.Ratio(row.Solo),
			ratio,
		)
	}
	if err := t.Render(w); err != nil {
		return err
	}

	var xs, local, global, solo []float64
	for _, row := range res.Rows {
		xs = append(xs, float64(row.L2SizeBytes)/1024)
		local = append(local, row.Local)
		global = append(global, row.Global)
		solo = append(solo, row.Solo)
	}
	chart := report.Chart{
		LogY: true,
		Series: []report.Series{
			{Name: "local", Glyph: 'l', X: xs, Y: local},
			{Name: "global", Glyph: 'g', X: xs, Y: global},
			{Name: "solo", Glyph: 's', X: xs, Y: solo},
		},
	}
	fmt.Fprintln(w)
	if err := chart.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "\nsolo miss reduction per doubling (pre-plateau): %.3f (paper: ~0.69)\n",
		res.SoloDoublingFactor)
	return err
}

func runFig41(ctx *Context, w io.Writer) error {
	res, err := ctx.Surface(4, 1, mainmem.Base(), Fig4Grid())
	if err != nil {
		return err
	}
	return RenderSpeedSize(w, res)
}

// RenderSpeedSize renders the Figure 4-1 surface: one column per L2 cycle
// time, one row per L2 size.
func RenderSpeedSize(w io.Writer, res SpeedSizeResult) error {
	fmt.Fprintf(w, "Relative execution time, %dKB L1, memory read %dns\n", res.L1TotalKB, res.Memory.ReadNS)
	fmt.Fprintf(w, "L1 global read miss ratio: %s\n\n", report.Ratio(res.L1GlobalMiss))
	header := []string{"L2 KB \\ cyc"}
	for _, c := range res.Grid.CyclesNS {
		header = append(header, fmt.Sprintf("%d", c/CPUCycleNS))
	}
	t := report.NewTable(header...)
	for i, s := range res.Grid.SizesBytes {
		row := []string{report.SizeLabel(s)}
		for j := range res.Grid.CyclesNS {
			row = append(row, fmt.Sprintf("%.3f", res.Rel[i][j]))
		}
		t.AddRow(row...)
	}
	return t.Render(w)
}

func runFig4Contours(l1KB int, mem mainmem.Config, memLabel string) func(*Context, io.Writer) error {
	return func(ctx *Context, w io.Writer) error {
		res, err := ctx.Surface(l1KB, 1, mem, Fig4Grid())
		if err != nil {
			return err
		}
		return RenderContours(w, res, memLabel)
	}
}

// RenderContours renders a Figure 4-2/4-3/4-4: the slope-region map of the
// design space plus the interpolated lines of constant performance.
func RenderContours(w io.Writer, res SpeedSizeResult, memLabel string) error {
	g := res.ContourGrid()
	if err := g.Validate(); err != nil {
		return err
	}
	fmt.Fprintf(w, "Lines of constant performance, %dKB L1, %s\n", res.L1TotalKB, memLabel)
	lo, hi := g.MinMax()
	fmt.Fprintf(w, "relative execution time range: %.2f .. %.2f\n\n", lo, hi)

	fmt.Fprintln(w, "Slope regions (CPU cycles per L2 doubling): . <0.75, + 0.75-1.5, x 1.5-3, # >=3")
	field := g.SlopeField()
	m := report.RegionMap{
		SizesBytes: res.Grid.SizesBytes[:len(res.Grid.SizesBytes)-1],
		CyclesNS:   res.Grid.CyclesNS[:len(res.Grid.CyclesNS)-1],
		CPUCycleNS: CPUCycleNS,
		Cell: func(i, j int) rune {
			return report.SlopeGlyph(contour.Region(field[i][j], SlopeBoundariesNS()))
		},
	}
	if err := m.Render(w); err != nil {
		return err
	}

	fmt.Fprintln(w, "\nContour lines (cycle time in CPU cycles at each size, per relative-time level):")
	header := []string{"level"}
	for _, s := range res.Grid.SizesBytes {
		header = append(header, report.SizeLabel(s))
	}
	t := report.NewTable(header...)
	for _, level := range g.Levels(0.1) {
		line := g.Line(level)
		byesize := map[float64]float64{}
		for _, p := range line {
			byesize[p.SizeBytes] = p.CycleNS
		}
		row := []string{fmt.Sprintf("%.1f", level)}
		for _, s := range res.Grid.SizesBytes {
			if c, ok := byesize[float64(s)]; ok {
				row = append(row, fmt.Sprintf("%.1f", c/CPUCycleNS))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	if err := t.Render(w); err != nil {
		return err
	}

	// Mean slopes along the mid contour, the quantity the tradeoff
	// regions summarize.
	levels := g.Levels(0.1)
	if len(levels) > 0 {
		mid := levels[len(levels)/2]
		slopes := contour.SlopesPerDoubling(g.Line(mid))
		if len(slopes) > 0 {
			fmt.Fprintf(w, "\nslopes along the %.1f contour (CPU cycles per doubling):", mid)
			for _, s := range slopes {
				fmt.Fprintf(w, " %.2f", s/CPUCycleNS)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

func runFig5(setSize int) func(*Context, io.Writer) error {
	return func(ctx *Context, w io.Writer) error {
		res, err := ctx.BreakEven(4, setSize, Fig5Grid())
		if err != nil {
			return err
		}
		return RenderBreakEven(w, res)
	}
}

// RenderBreakEven renders a Figure 5-x: cumulative break-even
// implementation times (ns) across the design space.
func RenderBreakEven(w io.Writer, res BreakEvenResult) error {
	fmt.Fprintf(w, "Cumulative break-even implementation times (ns), set size %d vs direct-mapped, %dKB L1\n\n",
		res.SetSize, res.L1TotalKB)
	header := []string{"L2 KB \\ cyc"}
	for _, c := range res.CyclesNS {
		header = append(header, fmt.Sprintf("%d", c/CPUCycleNS))
	}
	t := report.NewTable(header...)
	for i, s := range res.SizesBytes {
		row := []string{report.SizeLabel(s)}
		for j := range res.CyclesNS {
			row = append(row, report.NS(res.BreakEvenNS[i][j]))
		}
		t.AddRow(row...)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "\nmean break-even time: %.1f ns (paper: 10-20 ns for 8-way; TTL mux floor ~11 ns)\n",
		res.MeanBreakEvenNS())
	return err
}

func runDerived(ctx *Context, w io.Writer) error {
	d, err := Derived(ctx)
	if err != nil {
		return err
	}
	return RenderDerived(w, d)
}

// RenderDerived renders the scalar-claims table.
func RenderDerived(w io.Writer, d DerivedResult) error {
	fmt.Fprintln(w, "Derived scalar claims (paper vs measured)")
	fmt.Fprintln(w)
	t := report.NewTable("quantity", "paper", "measured")
	t.AddRow("solo miss reduction per L2 doubling", "0.69", fmt.Sprintf("%.3f", d.SoloDoublingFactor))
	t.AddRow("fitted miss power-law exponent", "~0.54", fmt.Sprintf("%.3f", d.FittedAlpha))
	t.AddRow("1/M_L1 for 4KB L1", "~10", fmt.Sprintf("%.1f", d.InvML1))
	t.AddRow("contour shift, 4KB->32KB L1", "1.74 (model 2.04)", fmt.Sprintf("%.2f", d.ContourShift8x))
	t.AddRow("model-predicted shift (fitted alpha)", "2.04", fmt.Sprintf("%.2f", d.PredictedShift8x))
	t.AddRow("break-even growth per L1 doubling", "1.45", fmt.Sprintf("%.2f", d.BreakEvenMultiplierPerL1Doubling))
	t.AddRow("predicted break-even growth", "1.45", fmt.Sprintf("%.2f", d.PredictedBreakEvenMultiplier))
	t.AddRow("slope-region shift, 2x slower memory", "~2", fmt.Sprintf("%.2f", d.SlowMemoryRegionShift))
	return t.Render(w)
}
