// Package coord distributes a sweep grid across machines: a coordinator
// partitions the grid into shard leases and hands them to workers over an
// HTTP/JSON protocol; workers simulate their shards against a local copy of
// the trace (an mmap-ed .mlca artifact, a decoded trace file, or the
// synthetic workload) and stream per-point results back with their
// heartbeats. Robustness is the design center: leases expire and are
// reassigned with capped exponential backoff, preferably to a different
// worker, stragglers are speculatively re-executed, results merge
// first-writer-wins keyed by grid index (the engine is bit-deterministic,
// so duplicates are identical and no fault schedule can double-count or
// drop a point; a point that fails is merged with its error, since every
// worker would fail it), and the coordinator degrades to local in-process
// execution when no workers show up. The merged output is byte-identical
// to a single-process `sweep -par 1` run.
package coord

import (
	"context"
	"errors"
	"fmt"
	"io"

	"mlcache/internal/experiments"
	"mlcache/internal/mainmem"
	"mlcache/internal/memsys"
	"mlcache/internal/store"
	"mlcache/internal/sweep"
	"mlcache/internal/synth"
	"mlcache/internal/trace"
)

// JobSpec is the serializable description of one sweep job: everything a
// worker needs to reconstruct the exact grid and runner the coordinator
// would build, so that any subset of the grid computed anywhere merges
// byte-identically. The coordinator sends it verbatim in the register
// response. TracePath is resolved on the worker's filesystem — workers on
// other machines need the trace at the same path (shared filesystem or a
// copied artifact).
type JobSpec struct {
	// SizesBytes × CyclesNS × Assoc define the L2 grid, enumerated
	// size-major exactly like cmd/sweep.
	SizesBytes []int64 `json:"sizes_bytes"`
	CyclesNS   []int64 `json:"cycles_ns"`
	Assoc      int     `json:"assoc"`
	// L1KB is the split L1 total size; SlowMem selects the 2x slower main
	// memory.
	L1KB    int  `json:"l1_kb"`
	SlowMem bool `json:"slow_mem,omitempty"`
	// TracePath names the trace file ("" = synthetic workload from Seed).
	// Refs caps the trace length (0 with a trace = whole file).
	TracePath string `json:"trace_path,omitempty"`
	Refs      int64  `json:"refs"`
	Seed      int64  `json:"seed"`
	// ArtifactDigest names the trace by content ("sha256:<hex>") instead of
	// by filesystem path: a worker that doesn't share a disk with the
	// coordinator fetches it from the artifact store into its local cache.
	// When both digest and TracePath are set, the path is a local hint for
	// processes that already have the file; the digest is authoritative.
	// ArtifactCRC carries the artifact header's CRC-32C (0 = unknown); a
	// worker refuses a spec whose CRC disagrees with its digest's bytes.
	ArtifactDigest string `json:"artifact_digest,omitempty"`
	ArtifactCRC    uint32 `json:"artifact_crc32c,omitempty"`
	// Lenient, for non-artifact trace files, is the corrupt-record skip
	// budget passed to trace.Lenient (0 = strict). The skip count decoded
	// on each worker surfaces in its reports.
	Lenient int `json:"lenient,omitempty"`
	// CheckInvariants enables the per-access cache-state validator.
	CheckInvariants bool `json:"check_invariants,omitempty"`
	// Tenant labels the job with the submitting tenant's name. It is
	// metadata only — set authoritatively by the serve layer from the
	// request's API key (any client-supplied value is overwritten), never
	// part of grid enumeration, runner construction, or result cache
	// keys, so identical grids from different tenants share work.
	Tenant string `json:"tenant,omitempty"`
	// DeadlineSec, when positive, bounds the job's wall-clock runtime: the
	// serving process cancels the run cleanly once the deadline passes,
	// journals it failed(deadline), and frees the queue slot. Zero means no
	// deadline. Servers may cap the acceptable value (mlcserve
	// -max-job-deadline). Like Tenant, it never influences grid
	// enumeration or result identity.
	DeadlineSec int64 `json:"deadline_sec,omitempty"`
}

// Validation bounds. JobSpec crosses trust boundaries — HTTP submission,
// journal replay, the worker protocol — so Validate rejects not only
// unusable specs but absurd ones: Refs in the billions or a degenerate grid
// would OOM or wedge the process at materialization time, long after
// admission. Every bound sits far above any realistic experiment (the
// paper's full grid is 110 points; its longest traces are a few million
// references), so tripping one is always a bug or an attack, never a
// legitimate workload.
const (
	// MaxGridDim bounds each grid axis independently.
	MaxGridDim = 4096
	// MaxGridPoints bounds the enumerated size×cycle product.
	MaxGridPoints = 1 << 16
	// MaxRefs bounds the reference count: 2^33 refs at 16 bytes per arena
	// record is a 128 GiB materialization, already beyond sane hosts.
	MaxRefs = int64(1) << 33
	// MaxL2SizeBytes bounds a single simulated L2 (16 GiB).
	MaxL2SizeBytes = int64(1) << 34
	// MaxCycleNS bounds a single L2 cycle time (~1ms, glacial for SRAM).
	MaxCycleNS = int64(1) << 20
	// MaxAssoc bounds set associativity (fully-associative beyond this is
	// a degenerate CAM no hierarchy in the study space uses).
	MaxAssoc = 1 << 10
	// MaxL1KB bounds the split L1 total size (1 GiB).
	MaxL1KB = 1 << 20
	// MaxLenientBudget bounds the corrupt-record skip budget; a trace that
	// needs more skips than this is the wrong file, not a damaged one.
	MaxLenientBudget = 1 << 24
	// MaxDeadlineSec bounds a job deadline to one week.
	MaxDeadlineSec = int64(7 * 24 * 60 * 60)
)

// Distinct sentinel errors per admission bound, so the service layer and
// tests can tell which limit a spec tripped without string matching.
// Validate wraps them with the offending value via %w.
var (
	ErrGridTooLarge       = errors.New("coord: grid dimensions out of bounds")
	ErrL2SizeOutOfRange   = errors.New("coord: L2 size out of bounds")
	ErrCycleOutOfRange    = errors.New("coord: L2 cycle time out of bounds")
	ErrAssocOutOfRange    = errors.New("coord: associativity out of bounds")
	ErrL1OutOfRange       = errors.New("coord: L1 size out of bounds")
	ErrRefsOutOfRange     = errors.New("coord: reference count out of bounds")
	ErrLenientOutOfRange  = errors.New("coord: lenient skip budget out of bounds")
	ErrDeadlineOutOfRange = errors.New("coord: deadline out of bounds")
	// ErrMachineInvalid wraps memsys's refusal of a grid point's machine
	// (say, an associativity or size that is not a power of two), which
	// would otherwise fail every point after the trace is loaded.
	ErrMachineInvalid = errors.New("coord: machine cannot be built")
)

// Validate rejects a spec that cannot enumerate a grid, any spec whose
// stated dimensions exceed the admission bounds above, and any spec whose
// machines memsys cannot build.
func (s JobSpec) Validate() error {
	if len(s.SizesBytes) == 0 || len(s.CyclesNS) == 0 {
		return fmt.Errorf("coord: job needs at least one L2 size and one cycle time")
	}
	if len(s.SizesBytes) > MaxGridDim {
		return fmt.Errorf("%w: %d L2 sizes (max %d)", ErrGridTooLarge, len(s.SizesBytes), MaxGridDim)
	}
	if len(s.CyclesNS) > MaxGridDim {
		return fmt.Errorf("%w: %d cycle times (max %d)", ErrGridTooLarge, len(s.CyclesNS), MaxGridDim)
	}
	if pts := len(s.SizesBytes) * len(s.CyclesNS); pts > MaxGridPoints {
		return fmt.Errorf("%w: %d grid points (max %d)", ErrGridTooLarge, pts, MaxGridPoints)
	}
	for _, b := range s.SizesBytes {
		if b <= 0 {
			return fmt.Errorf("coord: L2 size %d must be positive", b)
		}
		if b > MaxL2SizeBytes {
			return fmt.Errorf("%w: %d bytes (max %d)", ErrL2SizeOutOfRange, b, MaxL2SizeBytes)
		}
	}
	for _, c := range s.CyclesNS {
		if c <= 0 {
			return fmt.Errorf("coord: L2 cycle time %d must be positive", c)
		}
		if c > MaxCycleNS {
			return fmt.Errorf("%w: %d ns (max %d)", ErrCycleOutOfRange, c, MaxCycleNS)
		}
	}
	if s.Assoc < 0 {
		return fmt.Errorf("coord: associativity %d must be non-negative", s.Assoc)
	}
	if s.Assoc > MaxAssoc {
		return fmt.Errorf("%w: %d ways (max %d)", ErrAssocOutOfRange, s.Assoc, MaxAssoc)
	}
	if s.L1KB <= 0 {
		return fmt.Errorf("coord: L1 size %d KB must be positive", s.L1KB)
	}
	if s.L1KB > MaxL1KB {
		return fmt.Errorf("%w: %d KB (max %d)", ErrL1OutOfRange, s.L1KB, MaxL1KB)
	}
	if s.Refs < 0 {
		return fmt.Errorf("%w: %d is negative", ErrRefsOutOfRange, s.Refs)
	}
	if s.Refs > MaxRefs {
		return fmt.Errorf("%w: %d references (max %d)", ErrRefsOutOfRange, s.Refs, MaxRefs)
	}
	if s.TracePath == "" && s.ArtifactDigest == "" && s.Refs <= 0 {
		return fmt.Errorf("coord: synthetic workload needs a positive reference count")
	}
	// Negative Lenient stays legal: trace.Lenient reads it as an unlimited
	// skip budget and cmd/sweep exposes that via -lenient -1.
	if s.Lenient > MaxLenientBudget {
		return fmt.Errorf("%w: %d (max %d)", ErrLenientOutOfRange, s.Lenient, MaxLenientBudget)
	}
	if s.DeadlineSec < 0 {
		return fmt.Errorf("%w: %d is negative", ErrDeadlineOutOfRange, s.DeadlineSec)
	}
	if s.DeadlineSec > MaxDeadlineSec {
		return fmt.Errorf("%w: %d s (max %d)", ErrDeadlineOutOfRange, s.DeadlineSec, MaxDeadlineSec)
	}
	if s.ArtifactDigest != "" {
		if _, err := store.ParseDigest(s.ArtifactDigest); err != nil {
			return err
		}
	}
	// A machine's shape depends on the point only through its L2 size; the
	// cycle time need only be positive, which the bounds above checked.
	for _, b := range s.SizesBytes {
		if err := s.Configure(sweep.Point{L2SizeBytes: b, L2CycleNS: s.CyclesNS[0], L2Assoc: s.Assoc}).Validate(); err != nil {
			return fmt.Errorf("%w: %w", ErrMachineInvalid, err)
		}
	}
	return nil
}

// Digest parses the spec's artifact digest; the zero Digest when unset.
// Validate has already vetted the string wherever a spec crossed a trust
// boundary.
func (s JobSpec) Digest() store.Digest {
	if s.ArtifactDigest == "" {
		return store.Digest{}
	}
	d, _ := store.ParseDigest(s.ArtifactDigest)
	return d
}

// errUnresolvedDigest explains the one spec shape local construction
// cannot serve: content-addressed, with no local copy resolved yet.
func (s JobSpec) errUnresolvedDigest() error {
	return fmt.Errorf("coord: job names its trace by digest %s but no local path is resolved; fetch it through a store cache first", s.ArtifactDigest)
}

// Grid returns the job's sweep grid.
func (s JobSpec) Grid() sweep.Grid {
	return sweep.Grid{SizesBytes: s.SizesBytes, CyclesNS: s.CyclesNS, Assocs: []int{s.Assoc}}
}

// Points enumerates the grid in the canonical size-major order; a point's
// position in this slice is its global grid index, the key under which the
// coordinator merges results.
func (s JobSpec) Points() []sweep.Point { return s.Grid().Points() }

// RunnerFor builds the spec's runner around a materialized workload: the
// arena MaterializeArena returned, or one shared across jobs (the mlcserve
// workload cache). Every front end builds its runner this way, with the
// 20% warmup convention, which is what keeps their results byte-identical.
func (s JobSpec) RunnerFor(arena *trace.Arena) sweep.Runner {
	return sweep.Runner{
		Configure: s.Configure,
		Arena:     arena,
		CPU:       experiments.Options{Warmup: int64(arena.Len()) / 5}.CPU(),
	}
}

// Configure is the hierarchy of one grid point: the paper's base machine
// with the spec's split L1 and the point's L2.
func (s JobSpec) Configure(pt sweep.Point) memsys.Config {
	mem := mainmem.Base()
	if s.SlowMem {
		mem = mainmem.Slow()
	}
	cfg := experiments.BaseMachine(s.L1KB, experiments.L2Config(pt.L2SizeBytes, pt.L2CycleNS, pt.L2Assoc), mem)
	cfg.CheckInvariants = s.CheckInvariants
	return cfg
}

// MaterializeArena loads the spec's workload into an arena, whatever its
// source: the synthetic generator, an mmap-ed artifact, or a decoded
// (possibly lenient) trace file, with the Refs cap applied. It is the one
// spec loader; callers hand its arena to RunnerFor. It returns the
// resource backing the arena (close it when every consumer is done; a
// no-op for decoded and synthetic workloads) and the lenient-decode skip
// count. Synthetic generation observes ctx: once ctx ends it stops within
// cancelCheckRefs references and returns an error wrapping ctx.Err().
func (s JobSpec) MaterializeArena(ctx context.Context) (*trace.Arena, io.Closer, int64, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, 0, err
	}
	if s.TracePath == "" && s.ArtifactDigest != "" {
		return nil, nil, 0, s.errUnresolvedDigest()
	}
	if s.TracePath == "" {
		arena, err := s.generate(ctx)
		if err != nil {
			return nil, nil, 0, err
		}
		return arena, nopCloser{}, 0, nil
	}
	arena, closer, skipped, err := trace.LoadArena(s.TracePath, 0, s.Lenient)
	if err != nil {
		return nil, nil, 0, err
	}
	return s.capRefs(arena), closer, skipped, nil
}

// cancelCheckRefs is how many references synthetic generation produces
// between cancellation checks: rare enough to stay off the hot path,
// frequent enough that SIGINT or a deadline stops it within microseconds.
const cancelCheckRefs = 1024

// generate writes the synthetic workload of Seed and Refs into a new
// arena, cancelCheckRefs references at a time, checking ctx before the
// allocation and between chunks. Validate bounds Refs to [1, MaxRefs].
func (s JobSpec) generate(ctx context.Context) (*trace.Arena, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("coord: generate: %w", err)
	}
	refs := make([]trace.Ref, s.Refs)
	mix := synth.MustNewMix(synth.PaperMix(s.Seed))
	for lo := 0; lo < len(refs); lo += cancelCheckRefs {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("coord: generate: %w", err)
		}
		mix.Fill(refs[lo:min(lo+cancelCheckRefs, len(refs))])
	}
	return trace.NewArena(refs), nil
}

// capRefs applies the spec's Refs cap (0 = whole trace) to a trace file's
// arena, without copying.
func (s JobSpec) capRefs(arena *trace.Arena) *trace.Arena {
	if s.Refs > 0 && int64(arena.Len()) > s.Refs {
		return trace.NewArena(arena.Refs()[:s.Refs])
	}
	return arena
}

type nopCloser struct{}

func (nopCloser) Close() error { return nil }
