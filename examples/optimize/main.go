// Optimize: the paper's stated goal — "find the multi-level hierarchy that
// maximizes the overall performance while satisfying all the
// implementation constraints." Given a technology model (cycle-time cost
// per size doubling, an 11 ns mux for associativity), one stack-distance
// profiling pass ranks every L2 organization analytically (Equation 1),
// and the one-pass grid engine simulates every one of them: the printed
// best is the measured optimum.
package main

import (
	"log"
	"os"

	"mlcache/internal/cpu"
	"mlcache/internal/experiments"
	"mlcache/internal/mainmem"
	"mlcache/internal/optimal"
	"mlcache/internal/synth"
)

func main() {
	log.SetFlags(0)

	// One materialized trace serves the profiling pass and every
	// candidate's simulation.
	arena, err := synth.PaperArena(1, 600_000)
	if err != nil {
		log.Fatal(err)
	}
	search := optimal.Config{
		Base: experiments.BaseMachine(4,
			experiments.L2Config(512*1024, 3*experiments.CPUCycleNS, 1), mainmem.Base()),
		Tech: optimal.Technology{
			// A discrete-SRAM L2: 20 ns at 64 KB, +3 ns per doubling,
			// +11 ns (the paper's TTL mux) for any associativity.
			BaseCycleNS:    20,
			RefSizeBytes:   64 * 1024,
			NSPerDoubling:  3,
			AssocPenaltyNS: 11,
			MinSizeBytes:   32 * 1024,
			MaxSizeBytes:   4 * 1024 * 1024,
			Assocs:         []int{1, 2, 4, 8},
		},
		Arena: arena,
		CPU:   cpu.Config{CycleNS: experiments.CPUCycleNS, WarmupRefs: 120_000},
	}

	res, err := optimal.Search(search)
	if err != nil {
		log.Fatal(err)
	}
	if err := optimal.Render(os.Stdout, res); err != nil {
		log.Fatal(err)
	}
}
