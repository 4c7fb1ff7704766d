// Command tracestat measures the locality statistics of a reference trace:
// the reference mix, and solo read miss ratios across a range of cache
// sizes, with the per-doubling miss reduction factor (the paper reports
// ≈0.69 for its traces). It reads a trace file (text, binary, or mmap
// artifact codec, by suffix) or generates the default synthetic workload.
//
// Usage:
//
//	tracestat [-n refs] [-seed s] [-trace file] [-assoc a] [-block b]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"mlcache/internal/cache"
	"mlcache/internal/classify"
	"mlcache/internal/stackdist"
	"mlcache/internal/synth"
	"mlcache/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracestat: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run analyzes the workload args select and writes the report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tracestat", flag.ExitOnError)
	var (
		n         = fs.Int64("n", 2_000_000, "references to analyze (with -trace, a cap; 0 = the whole file)")
		seed      = fs.Int64("seed", 1, "seed for the synthetic workload")
		traceFile = fs.String("trace", "", "trace file to read (default: synthetic workload)")
		assoc     = fs.Int("assoc", 1, "associativity of the probe caches")
		block     = fs.Int("block", 32, "block size of the probe caches")
		minKB     = fs.Int64("min", 4, "smallest probe cache in KB")
		maxKB     = fs.Int64("max", 4096, "largest probe cache in KB")
		procs     = fs.Int("procs", 0, "override: number of synthetic processes")
		irun      = fs.Float64("irun", 0, "override: mean instruction run words")
		drun      = fs.Float64("drun", 0, "override: mean data run words")
		dataProb  = fs.Float64("dataprob", -1, "override: data reference probability")
		alpha     = fs.Float64("alpha", 0, "override: Pareto tail exponent")
		doClass   = fs.Bool("classify", false, "decompose probe-cache misses into compulsory/capacity/conflict")
		doProfile = fs.Bool("profile", false, "one-pass LRU stack-distance profile instead of probe caches")
		csv       = fs.Bool("csv", false, "with -profile: dump the stack-distance histogram as CSV (distance, count, cumulative miss ratio)")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits with usage

	var arena *trace.Arena
	var err error
	if *traceFile != "" {
		var closer io.Closer
		arena, closer, _, err = trace.LoadArena(*traceFile, *n, 0)
		if err == nil {
			defer closer.Close()
		}
	} else {
		if *n < 1 || *n > synth.MaxArenaRefs {
			return fmt.Errorf("-n %d: the synthetic workload takes 1 to %d references", *n, int64(synth.MaxArenaRefs))
		}
		mix := synth.PaperMix(*seed)
		if *procs < 0 || *procs > len(mix.Processes) {
			return fmt.Errorf("-procs %d: want 1 to %d processes, or 0 for all", *procs, len(mix.Processes))
		}
		if *procs > 0 {
			mix.Processes = mix.Processes[:*procs]
		}
		for i := range mix.Processes {
			p := &mix.Processes[i]
			if *irun > 0 {
				p.MeanIRunWords = *irun
			}
			if *drun > 0 {
				p.MeanDRunWords = *drun
			}
			if *dataProb >= 0 {
				p.DataRefProb = *dataProb
			}
			if *alpha > 0 {
				p.Code.Alpha, p.Data.Alpha = *alpha, *alpha
			}
		}
		m, err := synth.NewMix(mix)
		if err != nil {
			return err
		}
		refs := make([]trace.Ref, *n)
		m.Fill(refs)
		arena = trace.NewArena(refs)
	}
	if err != nil {
		return err
	}
	refs := arena.Refs()
	if len(refs) == 0 {
		return fmt.Errorf("trace %s holds no references", *traceFile)
	}

	switch {
	case *doProfile && *csv:
		runProfileCSV(stdout, refs, *block)
	case *doProfile:
		runProfile(stdout, refs, *block, *minKB, *maxKB)
	case *doClass:
		runClassify(stdout, refs, *block, *assoc, *minKB, *maxKB)
	default:
		runProbes(stdout, refs, *block, *assoc, *minKB, *maxKB)
	}
	return nil
}

// runProbes simulates one probe cache per size and prints the miss curve,
// measured after a warm-up of the first 20% of refs.
func runProbes(w io.Writer, refs []trace.Ref, block, assoc int, minKB, maxKB int64) {
	var probes []*cache.Cache
	for kb := minKB; kb <= maxKB; kb *= 2 {
		probes = append(probes, cache.MustNew(cache.Config{
			Name:       fmt.Sprintf("%dKB", kb),
			SizeBytes:  kb * 1024,
			BlockBytes: block,
			Assoc:      assoc,
			Repl:       cache.LRU,
			Write:      cache.WriteBack,
			Alloc:      cache.WriteAllocate,
		}))
	}

	var counts trace.Counts
	warm := len(refs) / 5
	for i, r := range refs {
		if i == warm {
			for _, p := range probes {
				p.ResetStats()
			}
		}
		counts.Add(r.Kind)
		for _, p := range probes {
			p.Access(r.Addr, r.Kind == trace.Store)
		}
	}

	printMix(w, counts)
	fmt.Fprintf(w, "measured after %d-reference warm-up\n\n", warm)
	fmt.Fprintf(w, "%-10s %12s %12s %10s\n", "cache", "read refs", "read misses", "miss ratio")
	var prev float64
	var factors []float64
	for _, p := range probes {
		st := p.Stats()
		m := st.LocalReadMissRatio()
		note := ""
		if prev > 0 && m > 0 {
			f := m / prev
			factors = append(factors, f)
			note = fmt.Sprintf("  x%.3f", f)
		}
		fmt.Fprintf(w, "%-10s %12d %12d %10.5f%s\n", p.Config().Name, st.ReadRefs, st.ReadMisses, m, note)
		prev = m
	}
	if len(factors) > 0 {
		prod := 1.0
		for _, f := range factors {
			prod *= f
		}
		fmt.Fprintf(w, "\ngeometric-mean miss reduction per doubling: %.3f (paper: ~0.69)\n",
			math.Pow(prod, 1/float64(len(factors))))
	}
}

// runProfile computes the whole miss curve in one pass over the trace
// (Mattson's technique), instead of one probe cache per size.
func runProfile(w io.Writer, refs []trace.Ref, block int, minKB, maxKB int64) {
	prof := stackdist.MustNew(block)
	var counts trace.Counts
	for _, r := range refs {
		counts.Add(r.Kind)
		if r.Kind.IsRead() {
			prof.Access(r.Addr)
		}
	}
	printMix(w, counts)
	fmt.Fprintf(w, "one-pass LRU profile of the read stream (%d distinct %dB blocks, %d compulsory)\n\n",
		prof.DistinctBlocks(), block, prof.Cold())
	fmt.Fprintf(w, "%-10s %12s %10s\n", "capacity", "misses", "miss ratio")
	sizes, ratios := prof.Curve(block, minKB*1024, maxKB*1024)
	for i, sz := range sizes {
		fmt.Fprintf(w, "%-10s %12d %10.5f\n", fmt.Sprintf("%dKB", sz/1024),
			prof.MissesAtCapacity(sz/int64(block)), ratios[i])
	}
}

// runProfileCSV dumps the raw stack-distance histogram for offline
// analysis: one row per nonzero distance bin with its reference count and
// the cumulative miss ratio — the fraction of references that would miss
// a fully-associative LRU cache holding `distance` blocks. Distances
// beyond the exact-tracking window report their log2 bucket's upper
// bound, so the cumulative column stays a valid (conservative) miss
// curve. Cold (compulsory) references have no finite distance; they get
// a final "cold" row with their count and an empty ratio column.
func runProfileCSV(w io.Writer, refs []trace.Ref, block int) {
	prof := stackdist.MustNew(block)
	for _, r := range refs {
		if r.Kind.IsRead() {
			prof.Access(r.Addr)
		}
	}
	fmt.Fprintln(w, "distance,count,cum_miss_ratio")
	for _, b := range prof.Histogram() {
		fmt.Fprintf(w, "%d,%d,%.6f\n", b.Hi, b.Count, prof.MissRatioAtCapacity(b.Hi))
	}
	fmt.Fprintf(w, "cold,%d,\n", prof.Cold())
}

// runClassify decomposes each probe cache's misses into the three Cs.
func runClassify(w io.Writer, refs []trace.Ref, block, assoc int, minKB, maxKB int64) {
	var cls []*classify.Classifier
	for kb := minKB; kb <= maxKB; kb *= 2 {
		cls = append(cls, classify.MustNew(cache.Config{
			Name:       fmt.Sprintf("%dKB", kb),
			SizeBytes:  kb * 1024,
			BlockBytes: block,
			Assoc:      assoc,
			Repl:       cache.LRU,
			Write:      cache.WriteBack,
			Alloc:      cache.WriteAllocate,
		}))
	}
	var counts trace.Counts
	for _, r := range refs {
		counts.Add(r.Kind)
		for _, c := range cls {
			c.Access(r.Addr, r.Kind == trace.Store)
		}
	}
	printMix(w, counts)
	fmt.Fprintf(w, "%-10s %10s %12s %12s %12s\n", "cache", "miss", "compulsory", "capacity", "conflict")
	for _, c := range cls {
		b := c.Breakdown()
		fmt.Fprintf(w, "%-10s %10.5f %12d %12d %12d\n",
			c.Target().Config().Name, b.MissRatio(), b.Compulsory, b.Capacity, b.Conflict)
	}
}

func printMix(w io.Writer, counts trace.Counts) {
	fmt.Fprintf(w, "references: %d (ifetch %.1f%%, load %.1f%%, store %.1f%%)\n",
		counts.Total(),
		100*float64(counts.IFetch)/float64(counts.Total()),
		100*float64(counts.Load)/float64(counts.Total()),
		100*float64(counts.Store)/float64(counts.Total()))
}
