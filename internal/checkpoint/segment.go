package checkpoint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Segmented is a journal split across numbered segment files
// (<prefix>-000001.ckpt, <prefix>-000002.ckpt, …) in one directory. Append
// rotates to a fresh segment once the current one exceeds a byte
// threshold, and Compact rewrites the live record set into a single new
// segment and deletes the old ones — so a long-lived service can journal
// forever with bounded disk, unlike the single-file Journal whose only
// lifecycle is "append until done".
//
// Record semantics are the Journal's: CRC'd JSON lines, last intact record
// per key wins. LoadSegmented replays segments in number order, so a
// record rewritten by Compact (always into a higher-numbered segment)
// shadows every older copy. Crash safety: the compacted segment is
// written to a temp file, fsynced, renamed into place, and the directory
// fsynced before old segments are removed; a crash in between merely
// leaves stale segments whose records are shadowed or identical, never a
// lost live record. All methods are safe for concurrent use.
type Segmented struct {
	mu       sync.Mutex
	dir      string
	prefix   string
	maxBytes int64
	cur      *Journal
	curN     int
}

const segmentExt = ".ckpt"

func segmentPath(dir, prefix string, n int) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%06d%s", prefix, n, segmentExt))
}

// segmentNumbers lists the existing segment numbers for prefix in dir,
// ascending.
func segmentNumbers(dir, prefix string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var ns []int
	for _, e := range ents {
		var n int
		if _, err := fmt.Sscanf(e.Name(), prefix+"-%06d"+segmentExt, &n); err == nil &&
			e.Name() == fmt.Sprintf("%s-%06d%s", prefix, n, segmentExt) {
			ns = append(ns, n)
		}
	}
	sort.Ints(ns)
	return ns, nil
}

// OpenSegmented opens (or starts) the segmented journal <dir>/<prefix>-*,
// creating dir if needed. New appends go to the highest-numbered existing
// segment until it exceeds maxBytes (<= 0 means 64 MiB), then to a fresh
// one.
func OpenSegmented(dir, prefix string, maxBytes int64) (*Segmented, error) {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ns, err := segmentNumbers(dir, prefix)
	if err != nil {
		return nil, err
	}
	n := 1
	if len(ns) > 0 {
		n = ns[len(ns)-1]
	}
	j, err := Open(segmentPath(dir, prefix, n))
	if err != nil {
		return nil, err
	}
	return &Segmented{dir: dir, prefix: prefix, maxBytes: maxBytes, cur: j, curN: n}, nil
}

// Append journals one record; it is AppendBatch of one Entry.
func (s *Segmented) Append(key string, data any) (rotated bool, err error) {
	return s.AppendBatch([]Entry{{Key: key, Data: data}})
}

// AppendBatch journals the entries with one write and one fsync, exactly
// like Journal.AppendBatch, into the current segment, and reports whether
// it rotated to a new segment afterwards — the caller's cue to consider
// Compact.
func (s *Segmented) AppendBatch(entries []Entry) (rotated bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.cur.AppendBatch(entries); err != nil {
		return false, err
	}
	if s.cur.Size() < s.maxBytes {
		return false, nil
	}
	if err := s.rotateLocked(); err != nil {
		return false, err
	}
	return true, nil
}

// rotateLocked closes the current segment and starts the next one (Open
// fsyncs the new file and the directory).
func (s *Segmented) rotateLocked() error {
	if err := s.cur.Close(); err != nil {
		return err
	}
	j, err := Open(segmentPath(s.dir, s.prefix, s.curN+1))
	if err != nil {
		return err
	}
	s.cur, s.curN = j, s.curN+1
	return nil
}

// Segments returns the number of segment files currently on disk.
func (s *Segmented) Segments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	ns, err := segmentNumbers(s.dir, s.prefix)
	if err != nil {
		return 0
	}
	return len(ns)
}

// Compact folds every segment into one fresh segment holding only the
// records keep returns true for (in sorted key order, so compaction is
// deterministic), then deletes the old segments. Dropping a key is not
// durable against a crash *during* compaction — an old copy may resurface
// on reload — so keep must treat retention as an optimization, not a
// deletion guarantee: journal an explicit terminal record for state that
// must never come back.
func (s *Segmented) Compact(keep func(key string, data json.RawMessage) bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	set, err := loadSegmentsLocked(s.dir, s.prefix)
	if err != nil {
		return err
	}
	old, err := segmentNumbers(s.dir, s.prefix)
	if err != nil {
		return err
	}
	n := s.curN + 1
	final := segmentPath(s.dir, s.prefix, n)
	tmp := final + ".tmp"
	if err := s.writeCompacted(tmp, set, keep); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := s.cur.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	for _, o := range old {
		if err := os.Remove(segmentPath(s.dir, s.prefix, o)); err != nil {
			return err
		}
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	j, err := Open(final)
	if err != nil {
		return err
	}
	s.cur, s.curN = j, n
	return nil
}

// writeCompacted writes surviving records to a temp segment with one
// AppendBatch, so with one fsync.
func (s *Segmented) writeCompacted(path string, set Set, keep func(string, json.RawMessage) bool) error {
	j, err := Open(path)
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(set.Records))
	for k := range set.Records {
		if keep == nil || keep(k, set.Records[k]) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	entries := make([]Entry, len(keys))
	for i, k := range keys {
		entries[i].Key = k
		if raw := set.Records[k]; raw != nil {
			entries[i].Data = raw
		}
	}
	if err := j.AppendBatch(entries); err != nil {
		j.Close()
		return err
	}
	return j.Close()
}

// Close closes the current segment file.
func (s *Segmented) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur.Close()
}

// LoadSegmented loads every segment of <dir>/<prefix>-* in number order
// into one Set (later segments shadow earlier ones per key). A missing
// directory or an empty segment list is an empty Set, not an error — a
// fresh state dir simply has nothing to replay.
func LoadSegmented(dir, prefix string) (Set, error) {
	return loadSegmentsLocked(dir, prefix)
}

// LoadSegmentedAs is LoadSegmented's typed form, as LoadAs is Load's.
func LoadSegmentedAs[T any](dir, prefix string) (Typed[T], error) {
	runs, dropped, err := readSegments(dir, prefix, parseTyped[T]())
	if err != nil {
		return Typed[T]{}, err
	}
	return newTyped(runs, dropped), nil
}

func loadSegmentsLocked(dir, prefix string) (Set, error) {
	runs, dropped, err := readSegments(dir, prefix, parseRecord)
	if err != nil {
		return Set{}, err
	}
	return newSet(runs, dropped), nil
}

// readSegments parses the intact records of every segment of
// <dir>/<prefix>-*, in number order and line order.
func readSegments[E any](dir, prefix string, parse parseFunc[E]) ([][]E, int, error) {
	ns, err := segmentNumbers(dir, prefix)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	var runs [][]E
	dropped := 0
	for _, n := range ns {
		one, d, err := readSegment(segmentPath(dir, prefix, n), parse)
		if err != nil {
			return nil, 0, fmt.Errorf("checkpoint: segment %d: %w", n, err)
		}
		runs = append(runs, one...)
		dropped += d
	}
	return runs, dropped, nil
}

// readSegment reads one segment file's intact records in line order.
func readSegment[E any](path string, parse parseFunc[E]) ([][]E, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	body, err := splitHeader(data, nil)
	if err != nil {
		return nil, 0, err
	}
	return parseRecords(body, parse)
}
