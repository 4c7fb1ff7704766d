package coord

import (
	"mlcache/internal/cpu"
)

// ProtocolVersion is bumped on any incompatible change to the wire types;
// a worker refuses to join a coordinator speaking a different version.
// v2 added content-addressed traces (JobSpec.ArtifactDigest): a v1 worker
// cannot honor a digest-only spec, so the version gate keeps it out.
// v3 added JobSpec.DeadlineSec and the Validate admission bounds: a v2
// worker would silently drop a job's deadline and accept specs a v3
// coordinator rejects, so the gate keeps fleets in step.
// v4 dropped the release endpoint: a failed point travels in complete
// with its error (PointResult.Err), and a v3 worker would release its
// shard instead.
const ProtocolVersion = 4

// Endpoint paths. All endpoints are POST with JSON bodies and JSON
// responses; every request is idempotent, so a client that saw a torn or
// lost response simply retries. The lease endpoint re-grants a worker's
// outstanding lease, and heartbeat/complete merge first-writer-wins.
const (
	PathRegister  = "/v1/register"
	PathLease     = "/v1/lease"
	PathHeartbeat = "/v1/heartbeat"
	PathComplete  = "/v1/complete"
)

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	Worker string `json:"worker"`
}

// RegisterResponse hands the worker everything it needs to participate:
// the job spec (from which it reconstructs the grid and runner), the shard
// count, and the liveness parameters it must obey.
type RegisterResponse struct {
	Version int     `json:"version"`
	Job     JobSpec `json:"job"`
	// Shards is the number of strided partitions of the grid; a lease
	// names one of them.
	Shards int `json:"shards"`
	// LeaseTTLMS is how long a lease lives without a heartbeat before the
	// coordinator reassigns the shard. HeartbeatMS is the interval workers
	// must beat at (several beats fit in one TTL, so a single lost beat
	// does not forfeit the lease).
	LeaseTTLMS  int64 `json:"lease_ttl_ms"`
	HeartbeatMS int64 `json:"heartbeat_ms"`
}

// LeaseRequest asks for a shard to work on.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseResponse grants a shard lease, tells the worker to wait, or reports
// the grid done. Exactly one of Done, WaitMS, or a grant (Shards > 0) is
// meaningful.
type LeaseResponse struct {
	// Done: every grid point is merged; the worker can exit.
	Done bool `json:"done,omitempty"`
	// WaitMS: nothing grantable right now (shards in retry backoff, or all
	// leased and too young to speculate) — ask again after this long.
	WaitMS int64 `json:"wait_ms,omitempty"`
	// Shard i of Shards, strided like sweep.Shard: the lease covers grid
	// points at indices ≡ Shard (mod Shards). Lease is the fencing token
	// the worker must present on heartbeat and complete.
	Shard  int    `json:"shard"`
	Shards int    `json:"shards,omitempty"`
	Lease  uint64 `json:"lease"`
}

// PointResult carries one completed grid point: the point's global index in
// the canonical enumeration and its simulation result. Results are merged
// first-writer-wins per index, which together with the engine's
// bit-determinism makes every retransmission, retry, and speculative
// duplicate harmless.
type PointResult struct {
	Index int        `json:"index"`
	Run   cpu.Result `json:"run"`
	// Err is the point's failure, and then Run is meaningless. The engine
	// is deterministic, so any worker would fail the point the same way:
	// the failure is merged as the point's result.
	Err string `json:"err,omitempty"`
}

// HeartbeatRequest renews a lease and streams results: Done carries every
// point the worker has completed on this shard so far (cumulative, so the
// stream survives arbitrarily many lost heartbeats).
type HeartbeatRequest struct {
	Worker string        `json:"worker"`
	Shard  int           `json:"shard"`
	Lease  uint64        `json:"lease"`
	Done   []PointResult `json:"done,omitempty"`
	// TraceSkipped is the worker's corrupt-record skip count from its
	// lenient trace decode, surfaced so the coordinator can report
	// corruption rates per worker.
	TraceSkipped int64 `json:"trace_skipped,omitempty"`
}

// HeartbeatResponse acknowledges a beat. Cancel tells the worker its lease
// is gone — expired, or the shard was finished by a speculative twin — and
// it should abandon the shard (its results so far are already merged) and
// ask for a new lease.
type HeartbeatResponse struct {
	Cancel bool `json:"cancel,omitempty"`
}

// CompleteRequest uploads a finished shard: the full result set for every
// point of the shard, failed points with their errors (self-sufficient
// even if every heartbeat was lost).
type CompleteRequest struct {
	Worker       string        `json:"worker"`
	Shard        int           `json:"shard"`
	Lease        uint64        `json:"lease"`
	Results      []PointResult `json:"results"`
	TraceSkipped int64         `json:"trace_skipped,omitempty"`
}

// CompleteResponse acknowledges the upload. Done piggybacks grid
// completion so a worker whose upload was the last piece can exit without
// racing the coordinator's own shutdown on one more lease poll.
type CompleteResponse struct {
	OK   bool `json:"ok"`
	Done bool `json:"done,omitempty"`
}
