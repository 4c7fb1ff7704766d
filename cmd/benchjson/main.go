// Command benchjson measures simulator throughput and writes the result
// as a small JSON file, so CI can track the performance trajectory of the
// engine across commits. It runs the same workload as
// BenchmarkSimulatorThroughput — the base machine of §2 over the
// calibrated synthetic trace — decoding the trace once into an arena and
// timing the simulation passes alone.
//
// With -baseline it also enforces a trend gate: if measured throughput
// falls below baseline_refs_per_sec × tolerance, benchjson exits non-zero
// and the CI build fails instead of silently recording the regression.
// The output JSON is deliberately free of timestamps and other
// run-identifying noise, so artifacts from identical runs diff clean.
//
// Usage:
//
//	benchjson                        # writes BENCH_simulator.json
//	benchjson -n 500000 -runs 5 -o bench.json
//	benchjson -baseline BENCH_baseline.json -tolerance 0.85
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"mlcache/internal/cpu"
	"mlcache/internal/experiments"
	"mlcache/internal/mainmem"
	"mlcache/internal/memsys"
	"mlcache/internal/synth"
)

// result is the JSON schema; field names are stable so downstream tooling
// can diff files across commits. It intentionally carries no timestamp:
// two identical runs must produce byte-identical files.
type result struct {
	Name       string  `json:"name"`
	Refs       int64   `json:"refs"`
	Runs       int     `json:"runs"`
	ElapsedSec float64 `json:"elapsed_sec"`
	RefsPerSec float64 `json:"refs_per_sec"`
}

// gate compares a measurement against a baseline: it returns an error when
// current throughput is below baseline × tolerance. A faster-than-baseline
// run always passes — the gate is a floor, not a pin.
func gate(current, baseline result, tolerance float64) error {
	if tolerance <= 0 || tolerance > 1 {
		return fmt.Errorf("tolerance %.3f out of (0, 1]", tolerance)
	}
	if baseline.RefsPerSec <= 0 {
		return fmt.Errorf("baseline %q has non-positive refs_per_sec %.1f", baseline.Name, baseline.RefsPerSec)
	}
	floor := baseline.RefsPerSec * tolerance
	if current.RefsPerSec < floor {
		return fmt.Errorf("throughput regression: %.0f refs/s is below %.0f (baseline %.0f x tolerance %.2f)",
			current.RefsPerSec, floor, baseline.RefsPerSec, tolerance)
	}
	return nil
}

func loadBaseline(path string) (result, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return result{}, err
	}
	var r result
	if err := json.Unmarshal(buf, &r); err != nil {
		return result{}, fmt.Errorf("baseline %s: %w", path, err)
	}
	return r, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	var (
		n         = flag.Int64("n", 200_000, "trace length in references")
		runs      = flag.Int("runs", 3, "simulation passes to time (best pass is reported)")
		seed      = flag.Int64("seed", 1, "workload seed")
		out       = flag.String("o", "BENCH_simulator.json", "output file")
		baseline  = flag.String("baseline", "", "baseline JSON to gate against (empty = record only)")
		tolerance = flag.Float64("tolerance", 0.85, "fail when refs_per_sec < baseline x tolerance")
	)
	flag.Parse()

	cfg := experiments.BaseMachine(4,
		experiments.L2Config(512*1024, 30, 1), mainmem.Base())
	arena, err := synth.PaperArena(*seed, *n)
	if err != nil {
		log.Fatal(err)
	}
	h, err := memsys.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	var refs int64
	best := time.Duration(1<<63 - 1)
	for i := 0; i < *runs; i++ {
		h.Reset()
		start := time.Now()
		res, err := cpu.Run(h, arena.Cursor(), cpu.Config{CycleNS: cfg.CPUCycleNS})
		elapsed := time.Since(start)
		if err != nil {
			log.Fatal(err)
		}
		refs = res.CPUReads + res.Stores
		if elapsed < best {
			best = elapsed
		}
	}

	r := result{
		Name:       "SimulatorThroughput",
		Refs:       refs,
		Runs:       *runs,
		ElapsedSec: best.Seconds(),
		RefsPerSec: float64(refs) / best.Seconds(),
	}
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %.0f refs/s (%d refs, best of %d)\n", *out, r.RefsPerSec, refs, *runs)

	if *baseline != "" {
		base, err := loadBaseline(*baseline)
		if err != nil {
			log.Fatal(err)
		}
		if err := gate(r, base, *tolerance); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("gate ok: %.0f refs/s >= %.0f (baseline %.0f x %.2f)\n",
			r.RefsPerSec, base.RefsPerSec**tolerance, base.RefsPerSec, *tolerance)
	}
}
