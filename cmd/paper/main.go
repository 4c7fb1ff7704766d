// Command paper regenerates the tables and figures of Przybylski,
// Horowitz & Hennessy, "Characteristics of Performance-Optimal Multi-Level
// Cache Hierarchies" (ISCA 1989) on the synthetic workload.
//
// Usage:
//
//	paper -list
//	paper -fig 3-1            # one figure
//	paper -all                # everything, in paper order
//	paper -all -quick         # reduced trace length (fast, noisier)
//	paper -refs 5000000       # custom trace length
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"mlcache/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paper: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run regenerates the experiments args select and writes them to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("paper", flag.ExitOnError)
	var (
		fig   = fs.String("fig", "", "experiment id to run (see -list)")
		all   = fs.Bool("all", false, "run every experiment")
		list  = fs.Bool("list", false, "list experiment ids")
		quick = fs.Bool("quick", false, "use the reduced trace length")
		refs  = fs.Int64("refs", 0, "override trace length in references")
		seed  = fs.Int64("seed", 1, "workload seed")
		par   = fs.Int("par", 0, "max parallel simulations (0 = GOMAXPROCS)")
		out   = fs.String("o", "", "also write the output to this file")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits with usage

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-8s %s\n", e.ID, e.Title)
		}
		return nil
	}

	opt := experiments.DefaultOptions()
	if *quick {
		opt = experiments.QuickOptions()
	}
	if *refs > 0 {
		opt.Refs = *refs
		opt.Warmup = *refs / 5
	}
	opt.Seed = *seed
	opt.Parallelism = *par
	ctx := experiments.NewContext(opt)

	var toRun []experiments.Experiment
	switch {
	case *all:
		toRun = experiments.All()
	case *fig != "":
		e, ok := experiments.ByID(*fig)
		if !ok {
			return fmt.Errorf("unknown experiment %q; known: %s", *fig, strings.Join(experiments.IDs(), ", "))
		}
		toRun = []experiments.Experiment{e}
	default:
		return errors.New("nothing to do: pass -fig <id>, -all, or -list")
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = io.MultiWriter(stdout, f)
	}

	for _, e := range toRun {
		start := time.Now()
		fmt.Fprintf(w, "==== %s: %s ====\n", e.ID, e.Title)
		if err := e.Run(ctx, w); err != nil {
			return fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		fmt.Fprintf(w, "---- (%s, %d refs) ----\n\n", time.Since(start).Round(time.Millisecond), opt.Refs)
	}
	return nil
}
