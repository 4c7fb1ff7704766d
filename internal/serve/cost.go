package serve

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"mlcache/internal/coord"
	"mlcache/internal/sweep"
	"mlcache/internal/trace"
)

// The admission cost model prices a job from its spec alone — before any
// journal write or arena materialization — in the spirit of
// reuse-distance-histogram cost models: cheap static estimates that bound
// a workload's resource demands well enough to refuse the ruinous ones.
// Two quantities matter:
//
//   - Bytes: the arena the workload will materialize, refs × 16 (the
//     in-memory record size), plus the tag arrays of the hierarchies the
//     job simulates at once: one per simulation worker, at most one per
//     point, each as large as the job's largest point's with every set
//     of its L1s and L2 filled (cache.Config.AllocBytes; a trace can
//     touch every set). For artifact-backed specs the
//     reference count comes from the artifact's 32-byte header; for other
//     trace files, from the file size (an overestimate — text records are
//     wider on disk than in memory — which errs on the safe side).
//   - Cost: the grid work in reference-simulations. The sweep planner
//     decodes the trace once and replays a recorded boundary through each
//     point's timing model, so the cost is
//     refs + points × refs / onepassReplayShare. Invariant checking sends
//     every point to full simulation, so such a spec costs points × refs.
//
// Estimates are deliberately crude: they only need to separate "a few
// hundred MB for a minute" from "OOM-kill every tenant at materialization
// time", and to do it in microseconds at admission.

// onepassReplayShare is the assumed per-point replay cost of the one-pass
// planner relative to a full simulation pass: replaying a recorded L1
// boundary touches roughly the miss stream, not every reference. The
// exact ratio varies by workload; a fixed 1/16 keeps the estimate stable
// and conservative enough for admission control.
const onepassReplayShare = 16

// CostModel bounds what a single job may demand at admission. Zero
// disables the corresponding per-job bound. MaxInflightBytes additionally
// caps the sum of estimated bytes across all admitted-but-unfinished
// jobs, so concurrently admissible jobs cannot jointly exhaust memory; a
// job estimated larger than MaxInflightBytes alone can never be admitted
// and is rejected as over-bytes.
type CostModel struct {
	MaxJobBytes      int64
	MaxJobCost       int64
	MaxInflightBytes int64
}

// JobEstimate is the admission-time resource estimate for one spec.
type JobEstimate struct {
	Bytes  int64 // the arena plus the tag arrays of the hierarchies held at once
	Cost   int64 // grid work in reference-simulations
	Points int
	Refs   int64
}

// CostError is the machine-readable admission rejection: which bound the
// job tripped, the estimate, and the configured limit. Rendered as the
// 413 response body.
type CostError struct {
	Reason    string `json:"reason"` // "bytes" or "cost"
	Estimated int64  `json:"estimated"`
	Limit     int64  `json:"limit"`
}

func (e *CostError) Error() string {
	return fmt.Sprintf("job estimated %s %d exceeds limit %d", e.Reason, e.Estimated, e.Limit)
}

// EstimateJob prices a spec run on workers simulation workers (0 =
// GOMAXPROCS, as for sweep.Runner.Parallelism). Artifact-digest specs
// must already be resolved to a local TracePath (handleJobs resolves
// before estimating); an unresolved digest falls back to the spec's
// stated Refs. Stat or header errors surface to the caller — a workload
// we cannot even size is a workload we cannot run.
func EstimateJob(spec coord.JobSpec, workers int) (JobEstimate, error) {
	refs := spec.Refs
	switch {
	case spec.TracePath == "" && spec.ArtifactDigest == "":
		// Synthetic: Validate guarantees Refs > 0.
	case spec.TracePath != "" && trace.IsArtifactPath(spec.TracePath):
		n, err := trace.ArtifactRefs(spec.TracePath)
		if err != nil {
			return JobEstimate{}, err
		}
		if refs <= 0 || refs > n {
			refs = n
		}
	case spec.TracePath != "":
		st, err := os.Stat(spec.TracePath)
		if err != nil {
			return JobEstimate{}, err
		}
		// Decoded records are never wider in memory than on disk (binary
		// records are ≥16 bytes framed, text lines wider still), so the
		// file size bounds the arena from above.
		n := st.Size() / refBytes
		if n < 1 {
			n = 1
		}
		if refs <= 0 || refs > n {
			refs = n
		}
	}
	points := len(spec.SizesBytes) * len(spec.CyclesNS)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var hierarchy int64
	if points > 0 {
		hierarchy = spec.Configure(sweep.Point{L2SizeBytes: slices.Max(spec.SizesBytes), L2Assoc: spec.Assoc}).TagBytes()
	}
	est := JobEstimate{
		Bytes:  refs*refBytes + int64(min(workers, points))*hierarchy,
		Points: points, Refs: refs,
	}
	if spec.CheckInvariants {
		est.Cost = int64(points) * refs
	} else {
		est.Cost = refs + int64(points)*refs/onepassReplayShare
	}
	return est, nil
}

// check applies the per-job bounds to an estimate.
func (m CostModel) check(est JobEstimate) *CostError {
	if m.MaxJobBytes > 0 && est.Bytes > m.MaxJobBytes {
		return &CostError{Reason: "bytes", Estimated: est.Bytes, Limit: m.MaxJobBytes}
	}
	if m.MaxInflightBytes > 0 && est.Bytes > m.MaxInflightBytes {
		// Bigger than the whole in-flight budget: permanently inadmissible,
		// so report it as a per-job bytes rejection (413), not transient
		// load (503) — a Retry-After would be a lie.
		return &CostError{Reason: "bytes", Estimated: est.Bytes, Limit: m.MaxInflightBytes}
	}
	if m.MaxJobCost > 0 && est.Cost > m.MaxJobCost {
		return &CostError{Reason: "cost", Estimated: est.Cost, Limit: m.MaxJobCost}
	}
	return nil
}

// inflightGate tracks the sum of estimated bytes across admitted jobs.
// reserve fails when admitting n more would exceed max — the transient
// "come back later" complement to the static per-job bounds. A zero max
// never rejects. gauge mirrors the current reservation for /metrics.
type inflightGate struct {
	mu    sync.Mutex
	max   int64
	used  int64
	gauge *atomic.Int64
}

func (g *inflightGate) reserve(n int64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.max > 0 && g.used+n > g.max {
		return false
	}
	g.used += n
	if g.gauge != nil {
		g.gauge.Store(g.used)
	}
	return true
}

func (g *inflightGate) release(n int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.used -= n
	if g.used < 0 {
		g.used = 0
	}
	if g.gauge != nil {
		g.gauge.Store(g.used)
	}
}
