package serve

import (
	"context"
	"fmt"
	"io"
	"time"

	"mlcache/internal/checkpoint"
	"mlcache/internal/store"
	"mlcache/internal/store/backend"
)

// Artifact-store backend integration: the server serves and resolves
// artifacts through a pluggable backend.Store (local directory, or a
// tiered local-cache-over-S3 composition), tracks which digests its
// jobs reference (the GC root set), pins digests for the duration of a
// running job, and can run mark-and-sweep collection cycles over the
// backend.
//
// The root set has three sources, matching the GC safety argument:
//
//   - journaled job specs: every ArtifactDigest ever journaled in the
//     jobs journal (replayed at startup, extended on every submission)
//     — a restart must not forget what its interrupted jobs need;
//   - live jobs: runJob pins its spec's digest with the backend for
//     the job's lifetime, so even a root-set race cannot reclaim an
//     artifact mid-simulation;
//   - pinned cache entries: the backend's own fill-window pins.

// addArtifactRoot records d as referenced by a journaled job spec.
func (s *Server) addArtifactRoot(d store.Digest) {
	s.mu.Lock()
	if s.artifactRoots == nil {
		s.artifactRoots = map[store.Digest]bool{}
	}
	s.artifactRoots[d] = true
	s.mu.Unlock()
}

// ArtifactRoots snapshots the digests referenced by this server's jobs
// (journaled and live) — the GC mark set.
func (s *Server) ArtifactRoots() map[store.Digest]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[store.Digest]bool, len(s.artifactRoots))
	for d := range s.artifactRoots {
		out[d] = true
	}
	return out
}

// ArtifactGC runs one mark-and-sweep cycle over the artifact backend
// using the server's live root set, and exports the outcome as metrics.
// grace <= 0 uses the GC default (1h).
func (s *Server) ArtifactGC(ctx context.Context, grace time.Duration, dryRun bool) (backend.GCReport, error) {
	if s.artifacts == nil {
		return backend.GCReport{}, fmt.Errorf("serve: no artifact backend configured")
	}
	pins, _ := s.artifacts.(backend.Pins)
	report, err := backend.GC(ctx, s.artifacts, backend.GCOptions{
		Roots:  s.ArtifactRoots(),
		Pins:   pins,
		Grace:  grace,
		DryRun: dryRun,
		Logf:   s.cfg.Logf,
	})
	if err != nil {
		return report, err
	}
	if !dryRun {
		s.metrics.gcSweeps.Add(1)
		s.metrics.gcReclaimed.Add(int64(report.Reclaimed))
		s.metrics.gcReclaimedBytes.Add(report.ReclaimedBytes)
	}
	s.logf("artifact gc: scanned %d (%d B), reclaimed %d (%d B), kept %d roots / %d pinned / %d grace%s",
		report.Scanned, report.ScannedBytes, report.Reclaimed, report.ReclaimedBytes,
		report.KeptRoots, report.KeptPinned, report.KeptGrace,
		map[bool]string{true: " [dry run]", false: ""}[dryRun])
	return report, nil
}

// StartArtifactGC runs collection cycles every interval until ctx ends.
// Call from the process main after ResumeInterrupted so the root set is
// fully replayed first.
func (s *Server) StartArtifactGC(ctx context.Context, interval, grace time.Duration) {
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if _, err := s.ArtifactGC(ctx, grace, false); err != nil {
					s.logf("artifact gc: %v", err)
				}
			}
		}
	}()
}

// writeStoreMetrics appends artifact-store metrics to the Prometheus
// exposition: per-tier traffic when the backend is tiered, plus the GC
// counters. Appended after writePrometheus by handleMetrics.
func (s *Server) writeStoreMetrics(w io.Writer) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	if tier, ok := s.artifacts.(interface{ Stats() backend.TierStats }); ok {
		st := tier.Stats()
		counter("mlcserve_store_tier_local_hits_total", "Artifact resolves served by the local tier.", st.LocalHits)
		counter("mlcserve_store_tier_local_misses_total", "Artifact resolves that missed the local tier.", st.LocalMisses)
		counter("mlcserve_store_tier_promotions_total", "Objects promoted from the remote into the local tier.", st.Promotions)
		counter("mlcserve_store_tier_promoted_bytes_total", "Bytes promoted from the remote tier.", st.PromotedBytes)
		counter("mlcserve_store_tier_remote_puts_total", "Write-back uploads to the remote tier.", st.RemotePuts)
		counter("mlcserve_store_tier_uploaded_bytes_total", "Bytes uploaded to the remote tier.", st.UploadedBytes)
		counter("mlcserve_store_tier_fill_retries_total", "Promotion attempts discarded and retried after a failed verify.", st.FillRetries)
	}
	counter("mlcserve_store_gc_sweeps_total", "Artifact GC cycles applied.", s.metrics.gcSweeps.Load())
	counter("mlcserve_store_gc_reclaimed_objects_total", "Objects reclaimed by artifact GC.", s.metrics.gcReclaimed.Load())
	counter("mlcserve_store_gc_reclaimed_bytes_total", "Bytes reclaimed by artifact GC.", s.metrics.gcReclaimedBytes.Load())
}

// StateArtifactRoots reads a serve state directory's jobs journal and
// returns every artifact digest referenced by a journaled job spec —
// the offline view of the server's root set, used by the mlcastore CLI
// to collect a store safely while (or after) a server ran against it.
func StateArtifactRoots(stateDir string) (map[store.Digest]bool, error) {
	jobs, err := checkpoint.LoadSegmentedAs[jobRecord](stateDir, "jobs")
	if err != nil {
		return nil, fmt.Errorf("state dir %s: %w", stateDir, err)
	}
	roots := map[store.Digest]bool{}
	for _, r := range jobs.Records {
		if r.Err != nil || r.Value.Spec.ArtifactDigest == "" {
			continue
		}
		if d, err := store.ParseDigest(r.Value.Spec.ArtifactDigest); err == nil {
			roots[d] = true
		}
	}
	return roots, nil
}
