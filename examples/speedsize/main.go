// Speedsize: a miniature of Figures 4-1/4-2 — should the next dollar go to
// a *larger* L2 or a *faster* one? Runs a small (size × cycle-time) grid,
// prints the relative-execution-time surface, and extracts the
// equal-performance slopes that answer the question at every design point.
package main

import (
	"fmt"
	"log"
	"os"

	"mlcache/internal/experiments"
	"mlcache/internal/mainmem"
	"mlcache/internal/report"
	"mlcache/internal/sweep"
)

func main() {
	log.SetFlags(0)

	opt := experiments.Options{Seed: 1, Refs: 300_000, Warmup: 60_000}
	grid := sweep.Grid{
		SizesBytes: sweep.SizesPow2(16, 1024),
		CyclesNS:   sweep.CyclesRange(1, 6, experiments.CPUCycleNS),
	}
	res, err := experiments.NewContext(opt).Surface(4, 1, mainmem.Base(), grid)
	if err != nil {
		log.Fatal(err)
	}

	if err := experiments.RenderSpeedSize(os.Stdout, res); err != nil {
		log.Fatal(err)
	}

	g := res.ContourGrid()
	field := g.SlopeField()
	fmt.Println("\nequal-performance slope (CPU cycles of L2 cycle time that one size")
	fmt.Println("doubling is worth), at the 3-cycle row:")
	t := report.NewTable("doubling", "slope (cycles)", "verdict")
	j := 2 // the 3-cycle column
	for i := 0; i+1 < len(grid.SizesBytes); i++ {
		slope := field[i][j] / experiments.CPUCycleNS
		verdict := "prefer faster"
		if slope >= 1 {
			verdict = "prefer larger"
		}
		t.AddRow(
			fmt.Sprintf("%s->%sKB", report.SizeLabel(grid.SizesBytes[i]), report.SizeLabel(grid.SizesBytes[i+1])),
			fmt.Sprintf("%.2f", slope),
			verdict,
		)
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nsmall caches: a doubling buys several CPU cycles of cycle-time headroom;")
	fmt.Println("large caches: the benefit of further size fades and speed wins (§4).")
}
