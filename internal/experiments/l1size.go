package experiments

import (
	"fmt"
	"io"

	"mlcache/internal/mainmem"
	"mlcache/internal/report"
	"mlcache/internal/sweep"
)

// L1SizeResult is the data behind the paper's §6 claim: "as the L2 cycle
// time gets much above 4 CPU cycles, the optimal L1 cache size is
// significantly increased above its minimum." For each L2 cycle time, the
// execution time is measured across L1 sizes; OptimalL1[j] is the
// fastest L1 for L2 cycle time CyclesNS[j]. (The tension: a larger L1 cuts
// the number of trips to a slow L2 but in a real design would slow the CPU
// clock; here the CPU clock is held constant, so the experiment isolates
// the miss-penalty side of the §6 argument — the pull toward larger L1s.)
type L1SizeResult struct {
	L1KBs     []int
	CyclesNS  []int64
	Rel       [][]float64 // [l1Idx][cycleIdx]
	OptimalL1 []int       // per cycle time, in KB
	// L1CostNS is the modeled CPU cycle-time cost per L1 doubling used to
	// pick the optimum (0 = pure miss-penalty view).
	L1CostNS float64
}

// L1Size returns the §6 table: L1 total sizes of 2–64 KB × L2 cycle times
// of 1–8 CPU cycles on the base machine with a 512 KB L2, one
// (memoized) surface per L1 size. The optimum charges each L1 doubling
// 1.5 ns of CPU cycle time (larger on-chip caches are slower): it
// minimizes rel · (cpuCycle + cost·doublings)/cpuCycle, i.e. total wall
// time under the slowed clock.
func (c *Context) L1Size() (L1SizeResult, error) {
	res := L1SizeResult{
		L1KBs:    []int{2, 4, 8, 16, 32, 64},
		CyclesNS: sweep.CyclesRange(1, 8, CPUCycleNS),
		L1CostNS: 1.5,
	}
	grid := sweep.Grid{SizesBytes: []int64{512 * 1024}, CyclesNS: res.CyclesNS}
	specs := make([]surfaceSpec, len(res.L1KBs))
	for i, kb := range res.L1KBs {
		specs[i] = surfaceSpec{surfaceKey{kb, 1, mainmem.Base()}, grid}
	}
	surfaces, err := c.surfacesFor(specs)
	if err != nil {
		return res, err
	}
	for _, s := range surfaces {
		res.Rel = append(res.Rel, s.Rel[0])
	}
	// Pick the optimum per L2 cycle time under the slowed-clock model; the
	// sizes double, so size i is i doublings above the first.
	for j := range res.CyclesNS {
		best, bestCost := res.L1KBs[0], 0.0
		for i, kb := range res.L1KBs {
			clock := float64(CPUCycleNS) + res.L1CostNS*float64(i)
			cost := res.Rel[i][j] * clock
			if i == 0 || cost < bestCost {
				best, bestCost = kb, cost
			}
		}
		res.OptimalL1 = append(res.OptimalL1, best)
	}
	return res, nil
}

// RenderL1Size renders the sweep and the per-cycle-time optima.
func RenderL1Size(w io.Writer, res L1SizeResult) error {
	fmt.Fprintf(w, "Optimal L1 size vs L2 cycle time (512KB L2, L1 clock cost %.1fns/doubling)\n\n", res.L1CostNS)
	header := []string{"L1 KB \\ L2 cyc"}
	for _, c := range res.CyclesNS {
		header = append(header, fmt.Sprintf("%d", c/CPUCycleNS))
	}
	t := report.NewTable(header...)
	for i, kb := range res.L1KBs {
		row := []string{fmt.Sprintf("%d", kb)}
		for j := range res.CyclesNS {
			row = append(row, fmt.Sprintf("%.3f", res.Rel[i][j]))
		}
		t.AddRow(row...)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\noptimal L1 per L2 cycle time:")
	for j, c := range res.CyclesNS {
		fmt.Fprintf(w, "  %dcyc:%dKB", c/CPUCycleNS, res.OptimalL1[j])
	}
	_, err := fmt.Fprintln(w)
	return err
}

func runL1Size(ctx *Context, w io.Writer) error {
	res, err := ctx.L1Size()
	if err != nil {
		return err
	}
	return RenderL1Size(w, res)
}
