package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
)

// maxLine caps a journal line: a line of maxLine bytes or more ends the
// read with bufio.ErrTooLong, keeping the records before it.
const maxLine = 16 << 20

// entry is one intact record as parsed, before later records of the same
// key shadow it.
type entry struct {
	key  string
	data json.RawMessage
}

// run is what one goroutine parsed of a journal's record lines: its
// intact records in line order, how many lines it dropped, and whether it
// stopped at a line of maxLine bytes or more.
type run struct {
	recs    []entry
	dropped int
	tooLong bool
}

// load parses a journal read whole: data as read, readErr the error that
// ended the read. A line of maxLine bytes or more, or a read error, ends
// the records; load returns those before it along with the error.
func load(data []byte, readErr error) (Set, error) {
	body, err := splitHeader(data, readErr)
	if err != nil {
		return Set{}, err
	}
	runs, dropped, err := parseRecords(body)
	if err == nil {
		err = readErr
	}
	return newSet(runs, dropped), err
}

// splitHeader validates the header line of data and returns the record
// lines after it.
func splitHeader(data []byte, readErr error) ([]byte, error) {
	if len(data) == 0 {
		if readErr != nil {
			return nil, readErr
		}
		return nil, fmt.Errorf("checkpoint: missing header line")
	}
	line, body, _ := bytes.Cut(data, []byte{'\n'})
	if len(line) >= maxLine {
		return nil, bufio.ErrTooLong
	}
	if err := checkHeaderLine(dropCR(line)); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return body, nil
}

// parseRecords parses the record lines of body on GOMAXPROCS goroutines,
// each taking the lines that start in one contiguous stretch of bytes. It
// returns their runs in line order; at a line of maxLine bytes or more it
// stops, keeping the lines before it, and returns bufio.ErrTooLong.
func parseRecords(body []byte) ([][]entry, int, error) {
	parts := inParallel(len(body), func(lo, hi int) run { return parseRun(body, lo, hi) })
	runs := make([][]entry, 0, len(parts))
	dropped := 0
	for _, p := range parts {
		runs = append(runs, p.recs)
		dropped += p.dropped
		if p.tooLong {
			return runs, dropped, bufio.ErrTooLong
		}
	}
	return runs, dropped, nil
}

// parseRun parses the lines of body that start at an offset in [lo, hi).
// Lines split as bufio.ScanLines splits them: at '\n', with one trailing
// '\r' dropped and a final unterminated line kept; empty lines are
// skipped.
func parseRun(body []byte, lo, hi int) (r run) {
	if lo > 0 {
		i := bytes.IndexByte(body[lo-1:], '\n')
		if i < 0 {
			return r
		}
		lo += i
	}
	for lo < hi {
		line, next := body[lo:], len(body)
		if i := bytes.IndexByte(line, '\n'); i >= 0 {
			line, next = line[:i], lo+i+1
		}
		if len(line) >= maxLine {
			r.tooLong = true
			return r
		}
		lo = next
		if line = dropCR(line); len(line) == 0 {
			continue
		}
		if e, ok := parseRecord(line); ok {
			r.recs = append(r.recs, e)
		} else {
			r.dropped++
		}
	}
	return r
}

// parseRecord decodes one record line and checks its CRC. The data of a
// canonical line aliases the line; any other line goes through
// json.Unmarshal into a record.
func parseRecord(line []byte) (entry, bool) {
	key, crc, data, ok := canonical(line)
	if !ok {
		var rec record
		if json.Unmarshal(line, &rec) != nil || rec.CRC != recordCRC(rec.Key, rec.Data) {
			return entry{}, false
		}
		return entry{rec.Key, rec.Data}, true
	}
	k := string(key)
	if crc != recordCRC(k, data) {
		return entry{}, false
	}
	return entry{k, data}, true
}

// canonical reads a record line in the exact shape json.Marshal(record)
// gives it — {"key":K,"crc":C,"data":D} or, without data,
// {"key":K,"crc":C} — for which json.Unmarshal would return the same key,
// CRC and data: K is printable ASCII without '"' or '\', so it needs no
// unescaping; C is an integer as encoding/json writes one and fits a
// uint32; and D is a JSON object. D is validated as part of the whole
// line, so that its nesting depth counts from the line's own object as it
// does for json.Unmarshal. ok is false for every other line.
func canonical(line []byte) (key []byte, crc uint32, data []byte, ok bool) {
	const keyTag, crcTag, dataTag = `{"key":"`, `","crc":`, `,"data":`
	rest, ok := bytes.CutPrefix(line, []byte(keyTag))
	if !ok {
		return nil, 0, nil, false
	}
	i := 0
	for ; i < len(rest) && rest[i] != '"'; i++ {
		if c := rest[i]; c < 0x20 || c > 0x7e || c == '\\' {
			return nil, 0, nil, false
		}
	}
	key, rest = rest[:i], rest[i:]
	if rest, ok = bytes.CutPrefix(rest, []byte(crcTag)); !ok {
		return nil, 0, nil, false
	}
	var v uint64
	i = 0
	for ; i < len(rest) && '0' <= rest[i] && rest[i] <= '9'; i++ {
		if v = v*10 + uint64(rest[i]-'0'); v > math.MaxUint32 {
			return nil, 0, nil, false
		}
	}
	if i == 0 || (i > 1 && rest[0] == '0') {
		return nil, 0, nil, false
	}
	switch rest = rest[i:]; {
	case len(rest) == 1 && rest[0] == '}':
		return key, uint32(v), nil, true
	case !bytes.HasPrefix(rest, []byte(dataTag)) || rest[len(rest)-1] != '}':
		return nil, 0, nil, false
	}
	// Capped, so that appending to one record's data cannot overwrite the
	// line after it in the shared buffer.
	data = rest[len(dataTag) : len(rest)-1 : len(rest)-1]
	if len(data) < 2 || data[0] != '{' || data[len(data)-1] != '}' || !json.Valid(line) {
		return nil, 0, nil, false
	}
	return key, uint32(v), data, true
}

// dropCR drops one trailing '\r', as bufio.ScanLines does.
func dropCR(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\r' {
		return line[:n-1]
	}
	return line
}

// newSet folds runs of intact records, in journal order, into a Set: the
// last record of each key wins and fixes the key's place in Set.Keys.
func newSet(runs [][]entry, dropped int) Set {
	n := 0
	for _, r := range runs {
		n += len(r)
	}
	s := Set{Records: make(map[string]json.RawMessage, n), Dropped: dropped}
	keys := make([]string, 0, n)
	for i := len(runs) - 1; i >= 0; i-- {
		for j := len(runs[i]) - 1; j >= 0; j-- {
			e := runs[i][j]
			if _, seen := s.Records[e.key]; !seen {
				s.Records[e.key] = e.data
				keys = append(keys, e.key)
			}
		}
	}
	slices.Reverse(keys)
	s.Keys = keys
	return s
}

// Decoded is one record of a Set after Decode: its key and its data
// unmarshalled into a T, or, with a zero Value, the error that prevented
// it.
type Decoded[T any] struct {
	Key   string
	Value T
	Err   error
}

// Decode unmarshals the data of every record of s into a T on GOMAXPROCS
// goroutines and returns one Decoded per key, in the order of s.Keys.
func Decode[T any](s Set) []Decoded[T] {
	out := make([]Decoded[T], len(s.Keys))
	inParallel(len(out), func(lo, hi int) struct{} {
		for i := lo; i < hi; i++ {
			d := &out[i]
			d.Key = s.Keys[i]
			if d.Err = json.Unmarshal(s.Records[d.Key], &d.Value); d.Err != nil {
				var zero T
				d.Value = zero
			}
		}
		return struct{}{}
	})
	return out
}

// inParallel splits [0, n) into contiguous ranges, one for each of up to
// GOMAXPROCS goroutines, calls f on every range at once and returns the
// results in range order once all calls have.
func inParallel[R any](n int, f func(lo, hi int) R) []R {
	parts := min(runtime.GOMAXPROCS(0), n)
	out := make([]R, parts)
	var wg sync.WaitGroup
	wg.Add(parts)
	for p := range out {
		go func() {
			defer wg.Done()
			out[p] = f(n*p/parts, n*(p+1)/parts)
		}()
	}
	wg.Wait()
	return out
}
