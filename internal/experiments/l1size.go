package experiments

import (
	"fmt"
	"io"

	"mlcache/internal/mainmem"
	"mlcache/internal/memsys"
	"mlcache/internal/report"
	"mlcache/internal/sweep"
)

// L1SizeResult is the data behind the paper's §6 claim: "as the L2 cycle
// time gets much above 4 CPU cycles, the optimal L1 cache size is
// significantly increased above its minimum." For each L2 cycle time, the
// execution time is measured across L1 sizes; OptimalL1KB[j] is the
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

// L1Size sweeps L1 total size × L2 cycle time on the base machine with a
// 512 KB L2. l1CostNS models the CPU cycle-time cost per L1 doubling
// (larger on-chip caches are slower); the optimum minimizes
// rel · (cpuCycle + cost·doublings)/cpuCycle, i.e. total wall time under
// the slowed clock.
func L1Size(l1KBs []int, cyclesNS []int64, l1CostNS float64, opt Options) (L1SizeResult, error) {
	res := L1SizeResult{L1KBs: l1KBs, CyclesNS: cyclesNS, L1CostNS: l1CostNS}
	arena, err := opt.arena()
	if err != nil {
		return res, err
	}
	runner := sweep.Runner{
		Configure: func(pt sweep.Point) memsys.Config {
			// Point.L2Assoc carries the L1 size in KB for this sweep.
			return BaseMachine(pt.L2Assoc, L2Config(512*1024, pt.L2CycleNS, 1), mainmem.Base())
		},
		Arena:       arena,
		CPU:         opt.CPU(),
		Parallelism: opt.Parallelism,
	}
	var pts []sweep.Point
	for _, kb := range l1KBs {
		for _, c := range cyclesNS {
			pts = append(pts, sweep.Point{L2SizeBytes: 512 * 1024, L2CycleNS: c, L2Assoc: kb})
		}
	}
	results, err := runner.RunPoints(pts)
	if err != nil {
		return res, err
	}
	k := 0
	res.Rel = make([][]float64, len(l1KBs))
	for i := range l1KBs {
		res.Rel[i] = make([]float64, len(cyclesNS))
		for j := range cyclesNS {
			res.Rel[i][j] = results[k].Run.RelTime
			k++
		}
	}
	// Pick the optimum per L2 cycle time under the slowed-clock model.
	doublings := func(kb int) float64 {
		d := 0.0
		for v := l1KBs[0]; v < kb; v *= 2 {
			d++
		}
		return d
	}
	for j := range cyclesNS {
		best, bestCost := l1KBs[0], 0.0
		for i, kb := range l1KBs {
			clock := float64(CPUCycleNS) + l1CostNS*doublings(kb)
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
	res, err := L1Size([]int{2, 4, 8, 16, 32, 64}, sweep.CyclesRange(1, 8, CPUCycleNS), 1.5, ctx.Opt)
	if err != nil {
		return err
	}
	return RenderL1Size(w, res)
}
