package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
)

// maxLine caps a journal line: a line of maxLine bytes or more ends the
// read with bufio.ErrTooLong, keeping the records before it.
const maxLine = 16 << 20

// The journal has one line parser with two forms. The raw form
// (parseRecord) yields each intact record's key and data bytes, from
// which Load and LoadSegmented build a Set. The typed form (parseTyped)
// yields each record's key and data decoded into a T, from which LoadAs
// and LoadSegmentedAs build a Typed; it returns exactly what unmarshalling
// each record of the Set into a T would, but decodes a record whose data
// has the exact shape json.Marshal writes for T in the same pass that
// checks the line's framing and CRC.

// entry is one intact record as the raw form parses it, before later
// records of the same key shadow it.
type entry struct {
	key  string
	data json.RawMessage
}

// run is what one goroutine parsed of a journal's record lines: its
// intact records in line order (entry for the raw form, Decoded for the
// typed one), how many lines it dropped, and whether it stopped at a line
// of maxLine bytes or more.
type run[E any] struct {
	recs    []E
	dropped int
	tooLong bool
}

// parseFunc parses one record line into *e and reports whether the line
// is an intact record; the line is dropped otherwise.
type parseFunc[E any] func(line []byte, e *E) bool

// load parses a journal read whole into a Set: data as read, readErr the
// error that ended the read. A line of maxLine bytes or more, or a read
// error, ends the records; load returns those before it along with the
// error.
func load(data []byte, readErr error) (Set, error) {
	body, err := splitHeader(data, readErr)
	if err != nil {
		return Set{}, err
	}
	runs, dropped, err := parseRecords(body, parseRecord)
	if err == nil {
		err = readErr
	}
	return newSet(runs, dropped), err
}

// loadAs is load's typed form.
func loadAs[T any](data []byte, readErr error) (Typed[T], error) {
	body, err := splitHeader(data, readErr)
	if err != nil {
		return Typed[T]{}, err
	}
	runs, dropped, err := parseRecords(body, parseTyped[T]())
	if err == nil {
		err = readErr
	}
	return newTyped(runs, dropped), err
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
func parseRecords[E any](body []byte, parse parseFunc[E]) ([][]E, int, error) {
	parts := inParallel(len(body), func(lo, hi int) run[E] { return parseRun(body, lo, hi, parse) })
	runs := make([][]E, 0, len(parts))
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
func parseRun[E any](body []byte, lo, hi int, parse parseFunc[E]) (r run[E]) {
	if lo > 0 {
		i := bytes.IndexByte(body[lo-1:], '\n')
		if i < 0 {
			return r
		}
		lo += i
	}
	if lo < hi {
		r.recs = make([]E, 0, bytes.Count(body[lo:hi], []byte{'\n'})+1)
	}
	var zero E
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
		r.recs = append(r.recs, zero)
		if !parse(line, &r.recs[len(r.recs)-1]) {
			r.recs = r.recs[:len(r.recs)-1]
			r.dropped++
		}
	}
	return r
}

// parseRecord is the raw form of the line parser: it reads one record
// line's key and data and checks its CRC. The data of a framed line that
// is valid JSON aliases the line; any other line goes through
// json.Unmarshal into a record.
func parseRecord(line []byte, e *entry) bool {
	key, crc, data, ok := frame(line)
	if ok && (data == nil || json.Valid(line)) {
		if crc != recordCRC(key, data) {
			return false
		}
		*e = entry{string(key), data}
		return true
	}
	var rec record
	if json.Unmarshal(line, &rec) != nil || rec.CRC != recordCRC([]byte(rec.Key), rec.Data) {
		return false
	}
	*e = entry{rec.Key, rec.Data}
	return true
}

// parseTyped returns the typed form of the line parser for T. A framed
// line whose CRC fails is dropped; one whose CRC holds and whose data is
// exactly what json.Marshal writes for a T is decoded by T's exact
// decoder, with neither json.Valid nor json.Unmarshal. Every other line
// takes the raw form, and its data goes through json.Unmarshal, whose
// error, if any, the record carries with a zero Value.
func parseTyped[T any]() parseFunc[Decoded[T]] {
	exact := exactFor(reflect.TypeFor[T]())
	return func(line []byte, d *Decoded[T]) bool {
		var zero T
		if exact != nil {
			if key, crc, data, ok := frame(line); ok {
				if crc != recordCRC(key, data) {
					return false
				}
				if decodeExact(exact, data, reflect.ValueOf(&d.Value).Elem()) {
					d.Key = string(key)
					return true
				}
				d.Value = zero
			}
		}
		var e entry
		if !parseRecord(line, &e) {
			return false
		}
		d.Key = e.key
		if d.Err = json.Unmarshal(e.data, &d.Value); d.Err != nil {
			d.Value = zero
		}
		return true
	}
}

// frame reads a record line in the exact shape json.Marshal(record) gives
// it — {"key":K,"crc":C,"data":D} or, without data, {"key":K,"crc":C} —
// for which json.Unmarshal returns the same key, CRC and data whenever
// the line is valid JSON: K is printable ASCII without '"' or '\', so it
// needs no unescaping; C is an integer as encoding/json writes one and
// fits a uint32; and D starts with '{' and ends with '}'. D itself is left
// for the caller to check: the raw form runs json.Valid over the whole
// line, so that D's nesting depth counts from the line's own object as it
// does for json.Unmarshal, and the typed form reads D with an exact
// decoder. ok is false for every other line.
func frame(line []byte) (key []byte, crc uint32, data []byte, ok bool) {
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
	if len(data) < 2 || data[0] != '{' || data[len(data)-1] != '}' {
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
	s := Set{Records: make(map[string]json.RawMessage, count(runs)), Dropped: dropped}
	last := lastOfKey(runs, func(e *entry) bool {
		if _, seen := s.Records[e.key]; seen {
			return false
		}
		s.Records[e.key] = e.data
		return true
	})
	s.Keys = make([]string, len(last))
	for i, e := range last {
		s.Keys[i] = e.key
	}
	return s
}

// Decoded is one record of a journal read into values of T: its key and
// its data unmarshalled into a T, or, with a zero Value, the error that
// prevented it.
type Decoded[T any] struct {
	Key   string
	Value T
	Err   error
}

// Typed is a journal read into values of T by LoadAs or LoadSegmentedAs:
// one Decoded per key in the order of Set.Keys, each at the place of its
// key's last intact record, and the lines dropped, as Set.Dropped counts
// them.
type Typed[T any] struct {
	Records []Decoded[T]
	Dropped int
}

// newTyped is newSet's typed form.
func newTyped[T any](runs [][]Decoded[T], dropped int) Typed[T] {
	seen := make(map[string]struct{}, count(runs))
	last := lastOfKey(runs, func(d *Decoded[T]) bool {
		if _, ok := seen[d.Key]; ok {
			return false
		}
		seen[d.Key] = struct{}{}
		return true
	})
	return Typed[T]{Records: last, Dropped: dropped}
}

// lastOfKey visits the records of runs from the journal's end and
// returns, in journal order, those for which first returns true: first
// reports whether the record is the first of its key so visited.
func lastOfKey[E any](runs [][]E, first func(*E) bool) []E {
	out := make([]E, 0, count(runs))
	for i := len(runs) - 1; i >= 0; i-- {
		for j := len(runs[i]) - 1; j >= 0; j-- {
			if e := &runs[i][j]; first(e) {
				out = append(out, *e)
			}
		}
	}
	slices.Reverse(out)
	return out
}

// count returns how many records runs hold.
func count[E any](runs [][]E) int {
	n := 0
	for _, r := range runs {
		n += len(r)
	}
	return n
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
