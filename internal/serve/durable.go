package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"mlcache/internal/checkpoint"
	"mlcache/internal/coord"
	"mlcache/internal/cpu"
	"mlcache/internal/sweep"
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
// Each job commits its points through a committer: the simulation worker
// only queues a finished point, and one goroutine per job writes every
// point queued since its last fsync with one AppendBatch (one write, one
// fsync), and only then puts those points in the result cache and
// streams their lines, in completion order. A point's record is thus
// fsynced *before* any client can see it, on this job's stream or through
// another job's cache probe, so anything a client saw is durable, while
// the simulation never waits for the disk. On startup the results journal
// replays into the in-memory result cache (every field of cpu.Result is
// an exported integer or shortest-round-trip float, so a replayed result
// renders byte-identically to the original simulation), and jobs still
// marked running are finished in the background by ResumeInterrupted —
// together: a SIGKILL'd server recomputes zero completed points and still
// produces byte-identical tables. Both journals are read with
// checkpoint.LoadSegmentedAs, which parses and decodes their lines on
// GOMAXPROCS goroutines and reads a cpu.Result in the exact shape
// json.Marshal wrote it without encoding/json (jobRecord, which has tags,
// goes through json.Unmarshal). Results enter the cache in journal order,
// so a journal larger than the cache leaves the most recently journaled
// points resident, the same ones on every restart; /metrics reports how
// long the replay took (mlcserve_state_replay_seconds).
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

// replay is what a state directory's journals hold at startup.
type replay struct {
	results checkpoint.Typed[cpu.Result]
	jobs    checkpoint.Typed[jobRecord]
}

// openDurable opens (creating if needed) the state directory's journals
// and returns them alongside the records they replay.
func openDurable(dir string, segmentBytes int64) (*durable, replay, error) {
	var r replay
	var err error
	if r.results, err = checkpoint.LoadSegmentedAs[cpu.Result](dir, "results"); err != nil {
		return nil, replay{}, fmt.Errorf("state dir %s: %w", dir, err)
	}
	if r.jobs, err = checkpoint.LoadSegmentedAs[jobRecord](dir, "jobs"); err != nil {
		return nil, replay{}, fmt.Errorf("state dir %s: %w", dir, err)
	}
	results, err := checkpoint.OpenSegmented(dir, "results", segmentBytes)
	if err != nil {
		return nil, replay{}, fmt.Errorf("state dir %s: %w", dir, err)
	}
	jobs, err := checkpoint.OpenSegmented(dir, "jobs", segmentBytes)
	if err != nil {
		results.Close()
		return nil, replay{}, fmt.Errorf("state dir %s: %w", dir, err)
	}
	return &durable{results: results, jobs: jobs}, r, nil
}

// commitResults commits a batch of a job's finished points: it journals
// them with one AppendBatch when the server is durable, then puts each in
// the result cache and hands it to publish, in order, and last compacts
// the journal when rotation has accumulated enough segments. Compaction
// keeps the keys still in the cache, the batch among them. Journal
// trouble degrades durability, not availability: it is logged, and the
// batch is still cached and published.
func (s *Server) commitResults(base string, batch []sweep.Result, publish func(sweep.Result)) {
	entries := make([]checkpoint.Entry, len(batch))
	for i, res := range batch {
		entries[i] = checkpoint.Entry{Key: pointKey(base, res.Point), Data: res.Run}
	}
	compact := false
	if s.durable != nil {
		rotated, err := s.durable.results.AppendBatch(entries)
		s.metrics.resultCommits.Add(1)
		if err != nil {
			s.logf("journal %d points: %v", len(entries), err)
		}
		compact = rotated && s.durable.results.Segments() > keepSegments
	}
	for i, res := range batch {
		s.results.putKey(entries[i].Key, res.Run)
		publish(res)
	}
	if compact {
		if err := s.durable.results.Compact(func(k string, _ json.RawMessage) bool { return s.results.has(k) }); err != nil {
			s.logf("compact results journal: %v", err)
		}
	}
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
