// Command mlcsim simulates a reference trace against a cache-hierarchy
// description file and reports execution time and per-level statistics —
// the direct equivalent of the paper's simulation system ("reads a file
// that specifies the depth of the cache hierarchy and the configuration of
// each cache").
//
// Usage:
//
//	mlcsim -config machine.cfg -trace refs.trc
//	mlcsim -config machine.cfg -trace refs.mlca
//	mlcsim -config machine.cfg -synth -n 2000000
//
// Trace files use the text codec by default, the binary codec for files
// ending in .bin or .mlct, and the mmap artifact codec for files ending in
// .mlca (opened with zero decode work and shared page-cache across
// concurrent mlcsim/sweep processes). The references read (at most -n of
// them; -n 0 reads the whole file) are loaded before the run, and the
// default warm-up is the first 20% of them.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"mlcache/internal/config"
	"mlcache/internal/cpu"
	"mlcache/internal/memsys"
	"mlcache/internal/prof"
	"mlcache/internal/report"
	"mlcache/internal/synth"
	"mlcache/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mlcsim: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run simulates the workload args select and writes the report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mlcsim", flag.ExitOnError)
	var (
		cfgPath   = fs.String("config", "", "hierarchy description file (required)")
		tracePath = fs.String("trace", "", "trace file to simulate")
		useSynth  = fs.Bool("synth", false, "simulate the synthetic multiprogramming workload")
		n         = fs.Int64("n", 2_000_000, "references to simulate (with -synth, or as a cap on -trace; 0 = the whole file)")
		seed      = fs.Int64("seed", 1, "synthetic workload seed")
		warmup    = fs.Int64("warmup", -1, "warm-up references excluded from statistics (-1 = 20% of the references read)")
		lenient   = fs.Int("lenient", 0, "skip up to N corrupt trace records (-1 = unlimited, 0 = strict)")
		check     = fs.Bool("check", false, "validate cache-state invariants after every access (slow)")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits with usage

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProf()

	if *cfgPath == "" {
		return errors.New("missing -config")
	}
	if (*tracePath == "") == !*useSynth {
		return errors.New("pass exactly one of -trace or -synth")
	}

	f, err := os.Open(*cfgPath)
	if err != nil {
		return err
	}
	cfg, err := config.Parse(f)
	f.Close()
	if err != nil {
		return err
	}
	cfg.CheckInvariants = *check
	h, err := memsys.New(cfg)
	if err != nil {
		return err
	}

	var arena *trace.Arena
	var skips int64
	if *useSynth {
		if arena, err = synth.PaperArena(*seed, *n); err != nil {
			err = fmt.Errorf("-n %d: %w", *n, err)
		}
	} else {
		if *lenient != 0 && trace.IsArtifactPath(*tracePath) {
			log.Print("note: -lenient has no effect on artifact traces")
		}
		var closer io.Closer
		arena, closer, skips, err = trace.LoadArena(*tracePath, *n, *lenient)
		if err == nil {
			defer closer.Close()
			switch {
			case arena.Len() == 0 && skips > 0:
				err = fmt.Errorf("trace %s holds no references: all %d record(s) read were corrupt and skipped", *tracePath, skips)
			case arena.Len() == 0:
				err = fmt.Errorf("trace %s holds no references", *tracePath)
			}
		}
	}
	if err != nil {
		return err
	}

	w := *warmup
	if w < 0 {
		w = int64(arena.Len()) / 5
	} else if w > 0 && w >= int64(arena.Len()) {
		return fmt.Errorf("-warmup %d leaves nothing to measure of the %d references read", w, arena.Len())
	}
	res, err := cpu.Run(h, arena.Cursor(), cpu.Config{CycleNS: cfg.CPUCycleNS, WarmupRefs: w})
	if err != nil {
		return err
	}
	if skips > 0 {
		log.Printf("warning: skipped %d corrupt trace record(s); addresses after a skip may be offset", skips)
	}
	return printResult(stdout, res, cfg)
}

func printResult(w io.Writer, res cpu.Result, cfg memsys.Config) error {
	fmt.Fprintf(w, "instructions: %d   loads: %d   stores: %d\n", res.Instructions, res.Loads, res.Stores)
	fmt.Fprintf(w, "execution:    %d cycles (%.3f ms at %dns/cycle)\n",
		res.Cycles, float64(res.TimeNS)/1e6, cfg.CPUCycleNS)
	fmt.Fprintf(w, "CPI: %.3f   relative execution time: %.3f\n\n", res.CPI, res.RelTime)

	t := report.NewTable("level", "read refs", "read miss", "local", "global", "write refs", "writebacks")
	addLevel := func(ls *memsys.LevelStats) {
		if ls == nil {
			return
		}
		t.AddRow(
			ls.Name,
			fmt.Sprintf("%d", ls.Cache.ReadRefs),
			fmt.Sprintf("%d", ls.Cache.ReadMisses),
			report.Ratio(ls.LocalReadMissRatio()),
			report.Ratio(ls.GlobalReadMissRatio(res.CPUReads)),
			fmt.Sprintf("%d", ls.Cache.WriteRefs),
			fmt.Sprintf("%d", ls.Cache.Writebacks),
		)
	}
	addLevel(res.Mem.L1I)
	addLevel(res.Mem.L1D)
	addLevel(res.Mem.L1)
	for i := range res.Mem.Down {
		addLevel(&res.Mem.Down[i])
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nmain memory: %d reads, %d writes, %.1f us queueing\n",
		res.Mem.MemReads, res.Mem.MemWrites, float64(res.Mem.MemStallNS)/1e3)
	if res.Mem.TLB != nil {
		fmt.Fprintf(w, "TLB: %d refs, %d misses (%.4f), %.1f us walking\n",
			res.Mem.TLB.Refs, res.Mem.TLB.Misses, res.Mem.TLB.MissRatio(),
			float64(res.Mem.TLB.WalkNS)/1e3)
	}

	fmt.Fprintf(w, "\nstall distribution (fraction of issue slots stalled at most N cycles):\n")
	for _, b := range []int{0, 2, 4, 6, 8} {
		bound := 1 << b
		label := fmt.Sprintf("<%d", bound)
		if b == 0 {
			label = "0"
		}
		fmt.Fprintf(w, "  %-5s %6.2f%%\n", label, 100*res.StallAtMost(b))
	}
	return nil
}
