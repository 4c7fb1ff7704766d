// Package checkpoint journals completed units of work to an append-only
// JSON-lines file so that a long simulation campaign interrupted by a crash
// or SIGINT can resume without repeating finished work. The sweep driver
// journals one record per completed grid point; on restart it loads the
// journal and skips every point already present.
//
// File format (one JSON value per line):
//
//	{"format":"mlcache-checkpoint","version":1}     <- header, first line
//	{"key":"...","crc":1234567890,"data":{...}}     <- one record per line
//
// The crc field is the IEEE CRC-32 of the key bytes, a zero byte, and the
// raw data bytes, so a record corrupted on disk (or torn by a crash mid
// write) is detected and dropped on load rather than poisoning the resume.
// Records are fsynced as they are appended, a batch of them with one
// write and one fsync; the header is fsynced before the first record so
// a journal is never seen without its version line.
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Format identifies the journal file format; Version is bumped on any
// incompatible change to the record layout.
const (
	Format  = "mlcache-checkpoint"
	Version = 1
)

type header struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
}

type record struct {
	Key  string          `json:"key"`
	CRC  uint32          `json:"crc"`
	Data json.RawMessage `json:"data,omitempty"`
}

// recordSep separates a record's key from its data in the CRC.
var recordSep = []byte{0}

// recordCRC is the IEEE CRC-32 of key, a zero byte and data. It takes the
// key as bytes so that the readers can pass the key bytes they framed:
// crc32.Update makes its argument escape, so converting a string key here
// would copy it to the heap once per record.
func recordCRC(key, data []byte) uint32 {
	crc := crc32.Update(0, crc32.IEEETable, key)
	crc = crc32.Update(crc, crc32.IEEETable, recordSep)
	return crc32.Update(crc, crc32.IEEETable, data)
}

// Journal is an open checkpoint file being appended to. It is safe for use
// from a single goroutine; callers that journal from several workers must
// serialize Append and AppendBatch themselves.
type Journal struct {
	f    *os.File
	size int64
	err  error
}

// syncDir fsyncs a directory so that a just-created (or just-renamed)
// journal file's directory entry survives power loss, not only its bytes.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Open opens (or creates) the journal at path for appending. A fresh or
// empty file gets the version header, fsynced along with its parent
// directory so the journal itself survives power loss. An existing file is
// validated so that records of an incompatible version are never mixed,
// and a torn tail left by a crash mid-append is truncated away so new
// records are never glued onto a partial line (which would corrupt both).
func Open(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	j := &Journal{f: f}
	writeHeader := func() error {
		hdr, _ := json.Marshal(header{Format: Format, Version: Version})
		if _, err := f.Write(append(hdr, '\n')); err != nil {
			return err
		}
		j.size = int64(len(hdr)) + 1
		return f.Sync()
	}
	if st.Size() == 0 {
		if err := writeHeader(); err != nil {
			f.Close()
			return nil, err
		}
		if err := syncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, err
		}
		return j, nil
	}
	// Existing journal: recover from a torn tail, then validate the
	// header without disturbing the append offset (reads use ReadAt).
	size, err := truncateTornTail(f, st.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	j.size = size
	if size == 0 {
		// Even the header was torn; start the journal over.
		if err := writeHeader(); err != nil {
			f.Close()
			return nil, err
		}
		return j, nil
	}
	if err := checkHeader(io.NewSectionReader(f, 0, size)); err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// truncateTornTail cuts the file back to the end of its last complete
// (newline-terminated) line, returning the resulting size. A file whose
// final byte is '\n' is untouched.
func truncateTornTail(f *os.File, size int64) (int64, error) {
	end := size
	buf := make([]byte, 64*1024)
	for end > 0 {
		n := int64(len(buf))
		if n > end {
			n = end
		}
		if _, err := f.ReadAt(buf[:n], end-n); err != nil {
			return 0, err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			end = end - n + int64(i) + 1
			break
		}
		end -= n
	}
	if end == size {
		return size, nil
	}
	if err := f.Truncate(end); err != nil {
		return 0, err
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	return end, nil
}

func checkHeader(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLine)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return err
		}
		return fmt.Errorf("missing header line")
	}
	return checkHeaderLine(sc.Bytes())
}

// checkHeaderLine validates a journal's first line.
func checkHeaderLine(line []byte) error {
	var h header
	if err := json.Unmarshal(line, &h); err != nil {
		return fmt.Errorf("bad header: %v", err)
	}
	if h.Format != Format {
		return fmt.Errorf("not a checkpoint file (format %q)", h.Format)
	}
	if h.Version != Version {
		return fmt.Errorf("unsupported version %d (want %d)", h.Version, Version)
	}
	return nil
}

// Entry is one record to append: Key identifies the unit (and is what
// resume matches on), Data is any JSON-serializable payload stored
// alongside it, or nil for none.
type Entry struct {
	Key  string
	Data any
}

// Append journals one completed unit; it is AppendBatch of one Entry.
func (j *Journal) Append(key string, data any) error {
	return j.AppendBatch([]Entry{{Key: key, Data: data}})
}

// AppendBatch journals the entries in order with one write and one fsync,
// so each record is durably complete when it returns and a crash during
// it leaves at most one torn final line. An entry whose data does not
// marshal is left out and its error returned after the others are
// written, just as if each entry had gone through its own Append.
func (j *Journal) AppendBatch(entries []Entry) error {
	if j.err != nil {
		return j.err
	}
	var buf []byte
	var bad error
	for _, e := range entries {
		line, err := recordLine(e)
		if err != nil {
			if bad == nil {
				bad = err
			}
			continue
		}
		buf = append(append(buf, line...), '\n')
	}
	if len(buf) == 0 {
		return bad
	}
	n, err := j.f.Write(buf)
	j.size += int64(n)
	if err == nil {
		err = j.f.Sync()
	}
	if err != nil {
		j.err = err
		return err
	}
	return bad
}

// recordLine marshals one entry as its journal line, without the newline.
func recordLine(e Entry) ([]byte, error) {
	var raw json.RawMessage
	if e.Data != nil {
		b, err := json.Marshal(e.Data)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: marshal %q: %w", e.Key, err)
		}
		raw = b
	}
	line, err := json.Marshal(record{Key: e.Key, CRC: recordCRC([]byte(e.Key), raw), Data: raw})
	if err != nil {
		return nil, fmt.Errorf("checkpoint: marshal %q: %w", e.Key, err)
	}
	return line, nil
}

// Size returns the journal's current byte size (header included).
func (j *Journal) Size() int64 { return j.size }

// Close closes the underlying file.
func (j *Journal) Close() error { return j.f.Close() }

// Set is the loaded contents of a journal: the data payload of every intact
// record, keyed by record key, plus counts describing what was dropped. A
// key journaled more than once keeps its last intact record.
type Set struct {
	Records map[string]json.RawMessage
	// Keys lists every key of Records once, in journal order: each at the
	// position of its last intact record, with the segments of a
	// segmented journal taken in number order.
	Keys []string
	// Dropped counts lines discarded for a bad CRC, malformed JSON, or a
	// torn tail — expected after a crash, never silently ignored.
	Dropped int
}

// Len returns the number of intact records.
func (s Set) Len() int { return len(s.Records) }

// Has reports whether an intact record with the key exists.
func (s Set) Has(key string) bool {
	_, ok := s.Records[key]
	return ok
}

// Load reads a journal, validating the header and each record's CRC.
// Corrupt or torn record lines are counted in Set.Dropped and skipped; a
// missing or wrong-version header is an error, because silently resuming
// from an incompatible journal would repeat or lose work. Record data may
// alias one buffer holding the whole file, so callers must not modify it.
func Load(path string) (Set, error) { return load(os.ReadFile(path)) }

// LoadAs is Load with each record's data unmarshalled into a T, on the
// goroutines that parse the lines: it returns the same keys in the same
// order, the Dropped count and error Load returns, and for each key the
// value or error json.Unmarshal gives for its data. Decoded values share
// no memory with the file as read.
func LoadAs[T any](path string) (Typed[T], error) { return loadAs[T](os.ReadFile(path)) }
