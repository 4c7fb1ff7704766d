// Package sweep runs grids of hierarchy simulations — the experimental
// method of §4 and §5: "the tradeoff between a temporal and an
// organizational parameter is investigated experimentally by varying the
// two design variables simultaneously and comparing their relative effects
// on performance." Each grid point is an independent simulation of the
// same trace against a modified hierarchy; points run in parallel.
package sweep

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"mlcache/internal/cpu"
	"mlcache/internal/memsys"
	"mlcache/internal/trace"
)

// Point identifies one design point of the second-level cache.
type Point struct {
	L2SizeBytes int64
	L2CycleNS   int64
	L2Assoc     int
}

// String renders the point compactly.
func (p Point) String() string {
	return fmt.Sprintf("L2=%dKB/%dns/%d-way", p.L2SizeBytes/1024, p.L2CycleNS, p.L2Assoc)
}

// Grid is a cartesian product of L2 design parameters.
type Grid struct {
	SizesBytes []int64
	CyclesNS   []int64
	Assocs     []int // empty means direct-mapped only
}

// Points enumerates the grid in size-major order.
func (g Grid) Points() []Point {
	assocs := g.Assocs
	if len(assocs) == 0 {
		assocs = []int{1}
	}
	var pts []Point
	for _, s := range g.SizesBytes {
		for _, c := range g.CyclesNS {
			for _, a := range assocs {
				pts = append(pts, Point{L2SizeBytes: s, L2CycleNS: c, L2Assoc: a})
			}
		}
	}
	return pts
}

// SizesPow2 returns the powers of two from lo to hi KB inclusive, in bytes.
func SizesPow2(loKB, hiKB int64) []int64 {
	var out []int64
	for kb := loKB; kb <= hiKB; kb *= 2 {
		out = append(out, kb*1024)
	}
	return out
}

// Shard returns shard i of n from a point list: the points at indices
// congruent to i mod n, in grid order. Several processes sharing one
// mmap-ed trace artifact each take a distinct shard and together cover the
// grid exactly once. The stride-n selection spreads the size-major
// enumeration's big-cache points (the slow ones) evenly across shards.
// Shard panics on an invalid shard spec; callers validate user input with
// ParseShard.
func Shard(pts []Point, i, n int) []Point {
	if n < 1 || i < 0 || i >= n {
		panic(fmt.Sprintf("sweep: shard %d/%d out of range", i, n))
	}
	if n == 1 {
		return pts
	}
	out := make([]Point, 0, (len(pts)+n-1-i)/n)
	for j := i; j < len(pts); j += n {
		out = append(out, pts[j])
	}
	return out
}

// ParseShard parses an "i/n" shard spec (e.g. "0/4"): n total shards,
// taking the i-th, 0 ≤ i < n. The empty string means the whole grid (0/1).
// Each failure mode gets its own message: a spec rejected at a terminal is
// the operator's first contact with sharding, so "out of range" must say
// which of i and n is wrong and what the bounds are.
func ParseShard(s string) (i, n int, err error) {
	if s == "" {
		return 0, 1, nil
	}
	is, ns, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("sweep: shard spec %q is not of the form i/n (e.g. 0/4)", s)
	}
	if i, err = strconv.Atoi(is); err != nil {
		return 0, 0, fmt.Errorf("sweep: shard spec %q: index %q is not an integer", s, is)
	}
	if n, err = strconv.Atoi(ns); err != nil {
		return 0, 0, fmt.Errorf("sweep: shard spec %q: count %q is not an integer", s, ns)
	}
	if n <= 0 {
		return 0, 0, fmt.Errorf("sweep: shard spec %q: count must be at least 1, got %d", s, n)
	}
	if i < 0 {
		return 0, 0, fmt.Errorf("sweep: shard spec %q: index must be non-negative, got %d", s, i)
	}
	if i >= n {
		return 0, 0, fmt.Errorf("sweep: shard spec %q: index %d out of range for %d shard(s) (want 0..%d)", s, i, n, n-1)
	}
	return i, n, nil
}

// CyclesRange returns cycle times from lo to hi CPU cycles inclusive, in
// nanoseconds, given the CPU cycle time.
func CyclesRange(lo, hi int, cpuCycleNS int64) []int64 {
	var out []int64
	for c := lo; c <= hi; c++ {
		out = append(out, int64(c)*cpuCycleNS)
	}
	return out
}

// Runner executes grid points.
type Runner struct {
	// Configure builds the hierarchy configuration for a point.
	Configure func(Point) memsys.Config
	// Arena is the grid's trace, materialized by the caller; it is
	// required. Every simulation reads it through its own zero-copy
	// cursor, so the engine never decodes: a caller running several grids
	// over one workload materializes once and shares the arena.
	Arena *trace.Arena
	CPU   cpu.Config
	// Parallelism bounds concurrent simulations; 0 means GOMAXPROCS.
	Parallelism int
}

// Result pairs a point with its simulation outcome.
type Result struct {
	Point Point
	Run   cpu.Result
	// Err is the point's failure, if any: a panic converted by the worker
	// pool (*PanicError), a configuration error, a timeout, or the grid's
	// cancellation. Run is meaningless when Err is non-nil.
	Err error
	// Skipped marks a point that Options.Skip excluded (already journaled
	// by a previous run); neither Run nor Err is set.
	Skipped bool
	// Attempts is how many simulation attempts the point consumed (> 1
	// only when Options.Retries allowed a retry after a failure).
	Attempts int
}

// OK reports whether the point was simulated successfully in this run.
func (r Result) OK() bool { return r.Err == nil && !r.Skipped }

// Run simulates every point of the grid and returns results in grid order.
func (r Runner) Run(grid Grid) ([]Result, error) {
	return r.RunPoints(grid.Points())
}

// RunPoints simulates the given points and returns results in input order.
// It is the strict all-or-nothing interface: the first per-point failure is
// returned as an error with no results. Callers that want fault isolation,
// cancellation, or resume use RunContext.
func (r Runner) RunPoints(pts []Point) ([]Result, error) {
	results, err := r.RunContext(context.Background(), pts, Options{})
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		if res.Err != nil {
			return nil, res.Err
		}
	}
	return results, nil
}
