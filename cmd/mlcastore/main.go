// Command mlcastore administers a content-addressed artifact store: a
// local directory (-dir), an S3-compatible bucket (-s3-endpoint), or a
// local directory tiered over a bucket (both). It lists and stats
// objects, re-verifies their bytes against their digests, adds files,
// and runs mark-and-sweep garbage collection with the same root
// discipline the serve layer uses — digests referenced by a serve state
// directory's jobs journal are never collected.
//
// Usage:
//
//	mlcastore -dir /var/lib/mlcserve/artifacts list
//	mlcastore -dir ... stat sha256:<hex>
//	mlcastore -dir ... verify
//	mlcastore -dir ... add trace.mlca
//	mlcastore -dir ... -state-dir /var/lib/mlcserve gc
//	mlcastore -dir ... -state-dir /var/lib/mlcserve gc -apply
//	mlcastore -s3-endpoint https://s3:9000 -s3-bucket traces list
//
// gc is a dry run unless -apply is given: it prints what would be
// reclaimed and why the rest was kept. Objects younger than -grace are
// never collected, so a concurrent upload that has not yet been
// journaled as a job reference survives. Credentials are refused over
// plaintext HTTP unless -insecure, exactly like the serve binaries;
// -s3-access-key/-s3-secret-key also read MLCA_S3_ACCESS_KEY and
// MLCA_S3_SECRET_KEY so secrets can stay out of process listings.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"mlcache/internal/serve"
	"mlcache/internal/store"
	"mlcache/internal/store/backend"
)

func usage() {
	fmt.Fprintf(flag.CommandLine.Output(),
		"usage: mlcastore [flags] list | stat DIGEST... | verify [DIGEST...] | add FILE... | gc [-apply]\n\nflags:\n")
	flag.PrintDefaults()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mlcastore: ")
	var (
		dir      = flag.String("dir", "", "local store directory (with -s3-endpoint: the local tier over the bucket)")
		s3Flags  = backend.RegisterS3Flags(flag.CommandLine)
		insecure = flag.Bool("insecure", false, "allow credentials over plaintext HTTP (testing only)")
		stateDir = flag.String("state-dir", "", "with gc: protect every artifact referenced by this serve state directory's jobs journal")
		grace    = flag.Duration("grace", time.Hour, "with gc: never collect objects younger than this")
		quiet    = flag.Bool("q", false, "print digests only (list) / suppress per-object output (verify)")
	)
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() == 0 {
		usage()
		os.Exit(2)
	}

	s3cfg, err := s3Flags.Config(*insecure)
	if err != nil {
		log.Fatal(err)
	}
	b, err := openBackend(*dir, s3cfg)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cmd, args := flag.Arg(0), flag.Args()[1:]
	switch cmd {
	case "list":
		err = cmdList(ctx, b, *quiet)
	case "stat":
		err = cmdStat(ctx, b, args)
	case "verify":
		err = cmdVerify(ctx, b, args, *quiet)
	case "add":
		err = cmdAdd(ctx, b, args)
	case "gc":
		err = cmdGC(ctx, b, args, *stateDir, *grace)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// openBackend builds the store the flags name: -dir alone is the local
// directory, -s3-endpoint alone the bucket, and both the directory tiered
// over the bucket.
func openBackend(dir string, s3cfg backend.S3Config) (backend.Backend, error) {
	if s3cfg.Endpoint == "" {
		if dir == "" {
			return nil, fmt.Errorf("need -dir or -s3-endpoint (or both for a local tier over the bucket)")
		}
		fs, err := store.OpenFileStore(dir)
		if err != nil {
			return nil, err
		}
		return backend.NewFS(fs), nil
	}
	s3, err := backend.NewS3(s3cfg)
	if err != nil {
		return nil, err
	}
	if dir == "" {
		return s3, nil
	}
	fs, err := store.OpenFileStore(dir)
	if err != nil {
		return nil, err
	}
	return backend.NewTiered(fs, s3), nil
}

func cmdList(ctx context.Context, b backend.Backend, quiet bool) error {
	var infos []backend.ObjectInfo
	if err := b.List(ctx, func(info backend.ObjectInfo) error {
		infos = append(infos, info)
		return nil
	}); err != nil {
		return err
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Digest.String() < infos[j].Digest.String() })
	var total int64
	for _, info := range infos {
		if quiet {
			fmt.Println(info.Digest)
		} else {
			mod := "-"
			if !info.ModTime.IsZero() {
				mod = info.ModTime.UTC().Format(time.RFC3339)
			}
			fmt.Printf("%s\t%d\t%s\n", info.Digest, info.Size, mod)
		}
		total += info.Size
	}
	if !quiet {
		fmt.Printf("# %d objects, %d bytes\n", len(infos), total)
	}
	return nil
}

func cmdStat(ctx context.Context, b backend.Backend, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("stat needs at least one digest")
	}
	for _, arg := range args {
		d, err := store.ParseDigest(arg)
		if err != nil {
			return err
		}
		info, err := b.Head(ctx, d)
		if err != nil {
			return fmt.Errorf("%s: %w", d, err)
		}
		mod := "-"
		if !info.ModTime.IsZero() {
			mod = info.ModTime.UTC().Format(time.RFC3339)
		}
		fmt.Printf("%s\t%d\t%s\n", info.Digest, info.Size, mod)
	}
	return nil
}

// cmdVerify re-reads each object and re-hashes its bytes; a store that
// passes is byte-for-byte what its digests promise. Exits non-zero if
// any object is corrupt or unreadable.
func cmdVerify(ctx context.Context, b backend.Backend, args []string, quiet bool) error {
	var digests []store.Digest
	if len(args) > 0 {
		for _, arg := range args {
			d, err := store.ParseDigest(arg)
			if err != nil {
				return err
			}
			digests = append(digests, d)
		}
	} else {
		if err := b.List(ctx, func(info backend.ObjectInfo) error {
			digests = append(digests, info.Digest)
			return nil
		}); err != nil {
			return err
		}
		sort.Slice(digests, func(i, j int) bool { return digests[i].String() < digests[j].String() })
	}
	bad := 0
	for _, d := range digests {
		if err := verifyOne(ctx, b, d); err != nil {
			bad++
			fmt.Printf("CORRUPT\t%s\t%v\n", d, err)
		} else if !quiet {
			fmt.Printf("ok\t%s\n", d)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d objects failed verification", bad, len(digests))
	}
	if !quiet {
		fmt.Printf("# %d objects verified\n", len(digests))
	}
	return nil
}

func verifyOne(ctx context.Context, b backend.Backend, d store.Digest) error {
	rc, err := b.Get(ctx, d)
	if err != nil {
		return err
	}
	defer rc.Close()
	got, _, err := store.DigestReader(rc)
	if err != nil {
		return err
	}
	if got != d {
		return fmt.Errorf("bytes hash to %s", got)
	}
	return nil
}

func cmdAdd(ctx context.Context, b backend.Backend, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("add needs at least one file")
	}
	for _, path := range args {
		d, size, err := store.DigestFile(path)
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		_, err = b.Put(ctx, d, f, size)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Printf("%s\t%d\t%s\n", d, size, path)
	}
	return nil
}

func cmdGC(ctx context.Context, b backend.Backend, args []string, stateDir string, grace time.Duration) error {
	fs := flag.NewFlagSet("gc", flag.ExitOnError)
	apply := fs.Bool("apply", false, "actually delete; default is a dry run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	roots := map[store.Digest]bool{}
	if stateDir != "" {
		var err error
		roots, err = serve.StateArtifactRoots(stateDir)
		if err != nil {
			return err
		}
	}
	pins, _ := b.(backend.Pins)
	report, err := backend.GC(ctx, b, backend.GCOptions{
		Roots:  roots,
		Pins:   pins,
		Grace:  grace,
		DryRun: !*apply,
		Logf:   log.Printf,
	})
	if err != nil {
		return err
	}
	verb := "reclaimed"
	if report.DryRun {
		verb = "would reclaim"
		for _, d := range report.Candidates {
			fmt.Printf("candidate\t%s\n", d)
		}
	}
	fmt.Printf("# scanned %d objects (%d bytes); %s %d (%d bytes); kept %d roots, %d pinned, %d in grace\n",
		report.Scanned, report.ScannedBytes, verb, report.Reclaimed, report.ReclaimedBytes,
		report.KeptRoots, report.KeptPinned, report.KeptGrace)
	return nil
}
