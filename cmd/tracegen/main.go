// Command tracegen writes reference traces to a file, either from the
// synthetic multiprogramming model or from one of the deterministic
// program-like kernels. Three output codecs are supported, chosen by
// -format or inferred from the output suffix: the Dinero-style text form,
// the compact delta-varint binary form (.bin/.mlct), and the fixed-width
// mmap artifact (.mlca) that cmd/mlcsim and cmd/sweep open with zero
// decode work — the format to use when many processes will share one
// trace.
//
// Usage:
//
//	tracegen -kind mix -n 1000000 -o mix.mlct
//	tracegen -kind mix -n 5000000 -format artifact -o mix.mlca
//	tracegen -kind matmul -param 64 -o mm.trc
//	tracegen -kind chase -param 4096 -n 100000 -o chase.trc
//	tracegen -kind stream -param 8192 -o stream.trc
//	tracegen -kind qsort -param 10000 -o qs.trc
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"mlcache/internal/synth"
	"mlcache/internal/trace"
	"mlcache/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the trace args select and reports it on stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ExitOnError)
	var (
		kind   = fs.String("kind", "mix", "workload: mix | matmul | chase | stream | qsort")
		n      = fs.Int64("n", 1_000_000, "references to emit (mix and chase; others are sized by -param)")
		param  = fs.Int("param", 64, "kernel size parameter (matrix N, nodes, elements, keys)")
		seed   = fs.Int64("seed", 1, "random seed")
		out    = fs.String("o", "", "output path (required)")
		format = fs.String("format", "auto", "output codec: auto | text | binary | artifact")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits with usage
	if *out == "" {
		return errors.New("missing -o")
	}
	f := *format
	if f == "auto" {
		switch {
		case trace.IsArtifactPath(*out):
			f = "artifact"
		case trace.IsBinaryPath(*out):
			f = "binary"
		default:
			f = "text"
		}
	}
	if f != "artifact" && f != "text" && f != "binary" {
		return fmt.Errorf("unknown format %q", f)
	}
	if *kind == "mix" && *n < 1 {
		return fmt.Errorf("-n %d: the mix needs at least 1 reference", *n)
	}

	var count int64
	if f == "artifact" {
		arena, err := buildArena(*kind, *n, *param, *seed)
		if err != nil {
			return err
		}
		if err := trace.WriteArtifact(*out, arena); err != nil {
			return err
		}
		count = int64(arena.Len())
	} else {
		s, err := buildStream(*kind, *n, *param, *seed)
		if err != nil {
			return err
		}
		if count, err = writeStream(*out, f, s); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "wrote %d references to %s (%s)\n", count, *out, f)
	return nil
}

// writeStream streams references through the text or binary codec without
// materializing the trace.
func writeStream(path, format string, s trace.Stream) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)

	var write func(trace.Ref) error
	var flush func() error
	if format == "binary" {
		w := trace.NewBinaryWriter(bw)
		write, flush = w.Write, w.Flush
	} else {
		w := trace.NewTextWriter(bw)
		write, flush = w.Write, w.Flush
	}

	var count int64
	for {
		r, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return count, err
		}
		if err := write(r); err != nil {
			return count, err
		}
		count++
	}
	if err := flush(); err != nil {
		return count, err
	}
	if err := bw.Flush(); err != nil {
		return count, err
	}
	return count, nil
}

// buildArena holds the workload in memory for the fixed-width artifact
// codec, the requirement every artifact consumer has: the mix is written
// in place into an arena of exactly n references.
func buildArena(kind string, n int64, param int, seed int64) (*trace.Arena, error) {
	if kind == "mix" {
		return synth.PaperArena(seed, n)
	}
	tr, err := kernel(kind, n, param, seed)
	if err != nil {
		return nil, err
	}
	return trace.NewArena(tr), nil
}

// buildStream returns the workload as a stream for the text and binary
// codecs; the mix is generated as it is written.
func buildStream(kind string, n int64, param int, seed int64) (trace.Stream, error) {
	if kind == "mix" {
		return synth.PaperStream(seed, n), nil
	}
	tr, err := kernel(kind, n, param, seed)
	if err != nil {
		return nil, err
	}
	return tr.Stream(), nil
}

// kernel builds one of the deterministic program-like kernels.
func kernel(kind string, n int64, param int, seed int64) (trace.Trace, error) {
	switch kind {
	case "matmul":
		return workload.MatMul(workload.MatMulConfig{N: param, Base: 1 << 24})
	case "chase":
		return workload.PointerChase(workload.PointerChaseConfig{
			Nodes: param, Steps: int(n), Seed: seed, Base: 1 << 24,
		})
	case "stream":
		return workload.Stream(workload.StreamConfig{Elems: param, Iters: 3, Base: 1 << 24})
	case "qsort":
		return workload.Quicksort(workload.QuicksortConfig{N: param, Seed: seed, Base: 1 << 24})
	}
	return nil, fmt.Errorf("unknown kind %q", kind)
}
