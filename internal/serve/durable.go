package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"mlcache/internal/checkpoint"
	"mlcache/internal/coord"
	"mlcache/internal/cpu"
)

// The durable layer persists the two things a restart must not lose: every
// simulated point's result, and which jobs were running. Both reuse the
// checkpoint package's CRC'd, torn-tail-tolerant JSONL format, segmented
// so a long-lived server journals with bounded disk:
//
//	<state-dir>/results-000001.ckpt   key = result-cache point key,
//	                                  data = the cpu.Result
//	<state-dir>/jobs-000001.ckpt      key = job-<seq>, data = jobRecord;
//	                                  last record per key wins, so a
//	                                  terminal append supersedes "running"
//
// A point's record is fsynced *before* its line is streamed to the
// client, so anything a client saw is durable. On startup the results
// journal replays into the in-memory result cache (every field of
// cpu.Result is an exported integer or shortest-round-trip float, so a
// replayed result renders byte-identically to the original simulation),
// and jobs still marked running are finished in the background by
// ResumeInterrupted — together: a SIGKILL'd server recomputes zero
// completed points and still produces byte-identical tables. Both
// journals are parsed and decoded on GOMAXPROCS goroutines
// (checkpoint.Load, checkpoint.Decode), and results enter the cache in
// journal order, so a journal larger than the cache leaves the most
// recently journaled points resident, the same ones on every restart.
//
// Journals compact on rotation: results keep only keys still live in the
// in-memory cache (an evicted point's record is dead weight — recomputing
// it is the cache policy's decision, not a durability loss), jobs keep
// only running records. Compaction dropping a key is advisory (see
// Segmented.Compact), which is safe here because every record that must
// not resurrect has a terminal append shadowing it.

// jobStatus values journaled for a job. Only statusRunning is resumed at
// startup; the others are terminal. statusPoisoned is the quarantine
// state: the job crashed the process too many times in a row and must
// never be re-run — unlike the other terminal states its record survives
// compaction, because the quarantine decision must outlive restarts.
const (
	statusRunning  = "running"
	statusDone     = "done"
	statusCanceled = "canceled"
	statusFailed   = "failed"
	statusPoisoned = "poisoned"
)

// jobRecord is the journaled description of one accepted job. Attempts
// counts how many times a process has journaled "running" for this job —
// the attempt-begin record written before runJob — so a restarted server
// can tell "interrupted once by a rolling restart" from "crashes the
// process every time". SpecDigest, Error, and PoisonedAt are the crash
// report filled in when the job is quarantined.
type jobRecord struct {
	Spec       coord.JobSpec `json:"spec"`
	Status     string        `json:"status"`
	Attempts   int           `json:"attempts,omitempty"`
	SpecDigest string        `json:"spec_digest,omitempty"`
	Error      string        `json:"error,omitempty"`
	PoisonedAt string        `json:"poisoned_at,omitempty"`
}

// specDigest is the stable identity of a job's workload+grid for the
// quarantine registry: the tenant label is cleared first (it never affects
// execution, and a poison spec is poison no matter who submits it), then
// the canonical JSON encoding is hashed. Digested after tenant stamping
// and artifact resolution, so the submit path and the journal replay path
// hash the same bytes.
func specDigest(spec coord.JobSpec) string {
	spec.Tenant = ""
	b, _ := json.Marshal(spec)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// keepSegments is how many segments may accumulate before a rotation
// triggers compaction.
const keepSegments = 2

// durable owns the state directory's journals.
type durable struct {
	results *checkpoint.Segmented
	jobs    *checkpoint.Segmented
}

// openDurable opens (creating if needed) the state directory's journals
// and returns them alongside the replayed record sets.
func openDurable(dir string, segmentBytes int64) (*durable, checkpoint.Set, checkpoint.Set, error) {
	resultsSet, err := checkpoint.LoadSegmented(dir, "results")
	if err != nil {
		return nil, checkpoint.Set{}, checkpoint.Set{}, fmt.Errorf("state dir %s: %w", dir, err)
	}
	jobsSet, err := checkpoint.LoadSegmented(dir, "jobs")
	if err != nil {
		return nil, checkpoint.Set{}, checkpoint.Set{}, fmt.Errorf("state dir %s: %w", dir, err)
	}
	results, err := checkpoint.OpenSegmented(dir, "results", segmentBytes)
	if err != nil {
		return nil, checkpoint.Set{}, checkpoint.Set{}, fmt.Errorf("state dir %s: %w", dir, err)
	}
	jobs, err := checkpoint.OpenSegmented(dir, "jobs", segmentBytes)
	if err != nil {
		results.Close()
		return nil, checkpoint.Set{}, checkpoint.Set{}, fmt.Errorf("state dir %s: %w", dir, err)
	}
	return &durable{results: results, jobs: jobs}, resultsSet, jobsSet, nil
}

// appendResult journals one completed point, compacting the journal when
// rotation has accumulated enough segments. live reports whether a key is
// still in the in-memory cache and therefore worth carrying forward.
func (d *durable) appendResult(key string, run cpu.Result, live func(string) bool) error {
	rotated, err := d.results.Append(key, run)
	if err != nil {
		return err
	}
	if rotated && d.results.Segments() > keepSegments {
		return d.results.Compact(func(k string, _ json.RawMessage) bool { return live(k) })
	}
	return nil
}

// appendJob journals a job-state transition under its stable job key.
func (d *durable) appendJob(jobKey string, rec jobRecord) error {
	rotated, err := d.jobs.Append(jobKey, rec)
	if err != nil {
		return err
	}
	if rotated && d.jobs.Segments() > keepSegments {
		return d.jobs.Compact(func(_ string, data json.RawMessage) bool {
			var r jobRecord
			if json.Unmarshal(data, &r) != nil {
				return false
			}
			// Poisoned records must survive compaction: the quarantine
			// decision is permanent, and dropping it would let the next
			// restart happily resume the crash loop.
			return r.Status == statusRunning || r.Status == statusPoisoned
		})
	}
	return nil
}

// close closes both journals.
func (d *durable) close() {
	d.results.Close()
	d.jobs.Close()
}

// jobKey formats the stable journal key for a job sequence number.
func jobKey(seq int64) string { return fmt.Sprintf("job-%08d", seq) }

// parseJobKey inverts jobKey.
func parseJobKey(key string) (int64, bool) {
	var seq int64
	if _, err := fmt.Sscanf(key, "job-%d", &seq); err != nil {
		return 0, false
	}
	return seq, true
}
