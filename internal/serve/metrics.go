package serve

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// latencyBuckets are the per-job duration histogram bounds in seconds,
// spanning cached-grid replays (milliseconds) to full Fig 4-1 sweeps over
// long traces (minutes).
var latencyBuckets = []float64{0.01, 0.05, 0.25, 1, 5, 30, 120, 600}

// admitBuckets bound the per-tenant job-admission wait histogram: how long
// a job sat in the fair queue before getting a run slot.
var admitBuckets = []float64{0.001, 0.01, 0.05, 0.25, 1, 5, 30, 120}

// histogram is a fixed-bucket cumulative histogram in the Prometheus
// style: counts[i] is the number of observations <= buckets[i], and the
// implicit +Inf bucket is count.
type histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64
	sum    float64
	count  int64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]int64, len(bounds))}
}

func (h *histogram) observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sum += v
	h.count++
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
		}
	}
}

// mean returns the average observation, or 0 with no observations.
func (h *histogram) mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// metrics is the server's observability state, exported in Prometheus
// text format by the /metrics handler.
type metrics struct {
	start time.Time

	jobsTotal            atomic.Int64 // accepted jobs (includes canceled)
	jobsRejected         atomic.Int64 // 429 queue-backpressure rejections
	jobsRejectedQuota    atomic.Int64 // 429 per-tenant token-bucket rejections
	jobsRejectedCost     atomic.Int64 // 413 admission cost-model rejections
	jobsRejectedLoad     atomic.Int64 // 503 in-flight byte-budget rejections
	jobsRejectedPoisoned atomic.Int64 // 422 resubmissions of quarantined specs
	jobsUnauthorized     atomic.Int64 // 401 missing/unknown API key
	jobsCanceled         atomic.Int64 // client disconnected mid-grid
	jobsResumed          atomic.Int64 // interrupted jobs finished after restart
	jobsPoisoned         atomic.Int64 // jobs quarantined past the attempt limit
	jobsDeadline         atomic.Int64 // jobs canceled by their own deadline
	streamStalls         atomic.Int64 // clients disconnected for stalled stream reads
	jobsActive           atomic.Int64
	queueDepth           atomic.Int64
	inflightBytes        atomic.Int64 // estimated bytes of admitted unfinished jobs

	pointsTotal    atomic.Int64 // points simulated by this process
	resultCommits  atomic.Int64 // AppendBatch calls on the results journal
	pointsCached   atomic.Int64 // served from the result cache
	pointsReplayed atomic.Int64 // loaded into the cache from the journal at startup
	replayNS       atomic.Int64 // startup replay of both journals, cache fill included
	pointsFailed   atomic.Int64
	refsTotal      atomic.Int64 // references simulated

	gcSweeps         atomic.Int64 // artifact GC cycles applied (not dry runs)
	gcReclaimed      atomic.Int64 // objects reclaimed by artifact GC
	gcReclaimedBytes atomic.Int64 // bytes reclaimed by artifact GC

	jobSeconds *histogram
}

func newMetrics() *metrics {
	return &metrics{start: time.Now(), jobSeconds: newHistogram(latencyBuckets)}
}

// tenantMetrics is one tenant's slice of the traffic counters, exported
// with a tenant label.
type tenantMetrics struct {
	jobs          atomic.Int64
	points        atomic.Int64
	pointsCached  atomic.Int64
	rejectedQuota atomic.Int64
	rejectedQueue atomic.Int64
	canceled      atomic.Int64
	admitSeconds  *histogram
}

// writeHistogram renders one histogram in Prometheus exposition format.
// labels, when non-empty, is the rendered label set minus the le pair
// (e.g. `tenant="alice"`).
func writeHistogram(w io.Writer, name, labels string, h *histogram) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	h.mu.Lock()
	for i, b := range h.bounds {
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, fmt.Sprintf("%g", b), h.counts[i])
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, h.count)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, h.sum, name, h.count)
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %g\n%s_count{%s} %d\n", name, labels, h.sum, name, labels, h.count)
	}
	h.mu.Unlock()
}

// writePrometheus renders every server metric in Prometheus text
// exposition format (version 0.0.4). tenants must be sorted by name so
// the exposition is deterministic.
func (m *metrics) writePrometheus(w io.Writer, arenas ArenaCacheStats, tenants []*tenant) {
	up := time.Since(m.start).Seconds()
	refsPerSec := 0.0
	if up > 0 {
		refsPerSec = float64(m.refsTotal.Load()) / up
	}

	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gaugeI := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	gaugeF := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}

	gaugeF("mlcserve_uptime_seconds", "Seconds since the server started.", up)
	counter("mlcserve_jobs_total", "Sweep jobs accepted.", m.jobsTotal.Load())
	counter("mlcserve_jobs_rejected_total", "Jobs rejected with 429 by queue backpressure.", m.jobsRejected.Load())
	counter("mlcserve_jobs_rejected_quota_total", "Jobs rejected with 429 by a tenant's token bucket.", m.jobsRejectedQuota.Load())
	counter("mlcserve_jobs_unauthorized_total", "Requests rejected with 401 for a missing or unknown API key.", m.jobsUnauthorized.Load())
	counter("mlcserve_jobs_rejected_cost_total", "Jobs rejected with 413 by the admission cost model.", m.jobsRejectedCost.Load())
	counter("mlcserve_jobs_rejected_load_total", "Jobs rejected with 503 because the in-flight byte budget was exhausted.", m.jobsRejectedLoad.Load())
	counter("mlcserve_jobs_rejected_poisoned_total", "Resubmissions rejected with 422 because the spec is quarantined.", m.jobsRejectedPoisoned.Load())
	counter("mlcserve_jobs_canceled_total", "Jobs abandoned because the client disconnected.", m.jobsCanceled.Load())
	counter("mlcserve_jobs_resumed_total", "Journaled jobs finished in the background after a restart.", m.jobsResumed.Load())
	counter("mlcserve_jobs_poisoned_total", "Jobs quarantined after crashing the process past the attempt limit.", m.jobsPoisoned.Load())
	counter("mlcserve_jobs_deadline_total", "Jobs canceled by their own deadline.", m.jobsDeadline.Load())
	counter("mlcserve_stream_stalls_total", "Streaming clients disconnected for not reading within the write timeout.", m.streamStalls.Load())
	gaugeI("mlcserve_jobs_active", "Jobs currently simulating or streaming.", m.jobsActive.Load())
	gaugeI("mlcserve_queue_depth", "Jobs waiting for a run slot.", m.queueDepth.Load())
	gaugeI("mlcserve_inflight_estimated_bytes", "Estimated arena bytes of admitted, unfinished jobs.", m.inflightBytes.Load())

	counter("mlcserve_points_total", "Grid points simulated.", m.pointsTotal.Load())
	counter("mlcserve_results_journal_commits_total", "Batches of simulated points written to the results journal, one fsync each.", m.resultCommits.Load())
	counter("mlcserve_points_cached_total", "Grid points served from the result cache.", m.pointsCached.Load())
	counter("mlcserve_points_replayed_total", "Grid points replayed into the result cache from the state journal.", m.pointsReplayed.Load())
	gaugeF("mlcserve_state_replay_seconds", "Seconds the startup replay of the state journals took: read, check, decode and cache fill (0 without a state dir).", time.Duration(m.replayNS.Load()).Seconds())
	counter("mlcserve_points_failed_total", "Grid points that failed simulation.", m.pointsFailed.Load())
	counter("mlcserve_refs_simulated_total", "Trace references simulated.", m.refsTotal.Load())
	gaugeF("mlcserve_refs_per_second", "Mean simulation throughput since start.", refsPerSec)

	counter("mlcserve_arena_cache_hits_total", "Workload cache hits.", arenas.Hits)
	counter("mlcserve_arena_cache_misses_total", "Workload cache misses (materializations).", arenas.Misses)
	counter("mlcserve_arena_cache_evictions_total", "Workloads evicted under the byte budget.", arenas.Evictions)
	gaugeI("mlcserve_arena_cache_bytes", "Bytes of cached trace arenas.", arenas.Bytes)
	gaugeI("mlcserve_arena_cache_pinned_bytes", "Bytes of arenas pinned by streaming jobs.", arenas.Pinned)
	gaugeI("mlcserve_arena_cache_entries", "Cached workloads.", int64(arenas.Entries))

	name := "mlcserve_job_duration_seconds"
	fmt.Fprintf(w, "# HELP %s Wall time of completed jobs.\n# TYPE %s histogram\n", name, name)
	writeHistogram(w, name, "", m.jobSeconds)

	if len(tenants) == 0 {
		return
	}
	tcounter := func(name, help string, get func(*tenantMetrics) int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, t := range tenants {
			fmt.Fprintf(w, "%s{tenant=%q} %d\n", name, t.name, get(&t.m))
		}
	}
	tcounter("mlcserve_tenant_jobs_total", "Jobs accepted per tenant.",
		func(m *tenantMetrics) int64 { return m.jobs.Load() })
	tcounter("mlcserve_tenant_points_total", "Points simulated per tenant.",
		func(m *tenantMetrics) int64 { return m.points.Load() })
	tcounter("mlcserve_tenant_points_cached_total", "Points served from the result cache per tenant.",
		func(m *tenantMetrics) int64 { return m.pointsCached.Load() })
	tcounter("mlcserve_tenant_rejected_quota_total", "Jobs rejected by the tenant's token bucket.",
		func(m *tenantMetrics) int64 { return m.rejectedQuota.Load() })
	tcounter("mlcserve_tenant_rejected_queue_total", "Jobs rejected because the tenant's queue share was full.",
		func(m *tenantMetrics) int64 { return m.rejectedQueue.Load() })
	tcounter("mlcserve_tenant_jobs_canceled_total", "Jobs abandoned by the tenant's client mid-grid.",
		func(m *tenantMetrics) int64 { return m.canceled.Load() })
	hname := "mlcserve_tenant_admission_wait_seconds"
	fmt.Fprintf(w, "# HELP %s Time a tenant's jobs waited for a run slot.\n# TYPE %s histogram\n", hname, hname)
	for _, t := range tenants {
		writeHistogram(w, hname, fmt.Sprintf("tenant=%q", t.name), t.m.admitSeconds)
	}
}
