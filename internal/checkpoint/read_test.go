package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// referenceRead is the journal reader as it was before the canonical-line
// reader: every line through bufio.Scanner and json.Unmarshal. It also
// returns the key of every intact record in line order, from which the
// expected Set.Keys follows. Its scanner starts from 4 KiB rather than
// 64 KiB: the buffer still grows to the same 16 MiB cap, so lines and
// errors are the same, and a 64 KiB allocation per input stalls
// FuzzReadJournal's progress reports.
func referenceRead(r io.Reader) (Set, []string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 4*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return Set{}, nil, err
		}
		return Set{}, nil, fmt.Errorf("checkpoint: missing header line")
	}
	var h header
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return Set{}, nil, fmt.Errorf("checkpoint: bad header: %v", err)
	}
	if h.Format != Format {
		return Set{}, nil, fmt.Errorf("checkpoint: not a checkpoint file (format %q)", h.Format)
	}
	if h.Version != Version {
		return Set{}, nil, fmt.Errorf("checkpoint: unsupported version %d (want %d)", h.Version, Version)
	}
	set := Set{Records: map[string]json.RawMessage{}}
	var order []string
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil {
			set.Dropped++
			continue
		}
		if rec.CRC != recordCRC([]byte(rec.Key), rec.Data) {
			set.Dropped++
			continue
		}
		set.Records[rec.Key] = rec.Data
		order = append(order, rec.Key)
	}
	if err := sc.Err(); err != nil {
		return set, order, err
	}
	return set, order, nil
}

// lastOccurrences keeps each key of order at its last position.
func lastOccurrences(order []string) []string {
	last := map[string]int{}
	for i, k := range order {
		last[k] = i
	}
	keys := []string{}
	for i, k := range order {
		if last[k] == i {
			keys = append(keys, k)
		}
	}
	return keys
}

var headerLine = func() []byte {
	b, _ := json.Marshal(header{Format: Format, Version: Version})
	return append(b, '\n')
}()

// checkAgainstReference requires load to return what referenceRead does
// for journal, and Keys in journal order.
func checkAgainstReference(t *testing.T, journal []byte) (Set, error) {
	t.Helper()
	want, order, wantErr := referenceRead(bytes.NewReader(journal))
	got, gotErr := load(journal, nil)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("error %v, reference %v", gotErr, wantErr)
	}
	if got.Dropped != want.Dropped {
		t.Fatalf("dropped %d, reference %d", got.Dropped, want.Dropped)
	}
	if !reflect.DeepEqual(got.Records, want.Records) {
		t.Fatalf("records %q, reference %q", got.Records, want.Records)
	}
	if want.Records == nil {
		order = nil
	} else {
		order = lastOccurrences(order)
	}
	if !reflect.DeepEqual(got.Keys, order) {
		t.Fatalf("keys %q, want %q", got.Keys, order)
	}
	return got, gotErr
}

// appendedLines returns the record lines Journal.Append writes for each
// (key, data) pair, without the header.
func appendedLines(t testing.TB, recs ...any) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seed.ckpt")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(recs); i += 2 {
		if err := j.Append(recs[i].(string), recs[i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.TrimPrefix(raw, headerLine)
}

// FuzzReadJournal requires load to return the same records, drop count
// and error as the reference reader on every journal. Mode 0 reads the
// fuzzed bytes as the journal's lines after a valid header. Mode 1 builds
// record lines from the fuzzed key and data with a matching CRC, spliced
// in raw and as json.Marshal writes them, so that lines pass the CRC
// check and reach both decoders.
func FuzzReadJournal(f *testing.F) {
	intact := appendedLines(f,
		"plain", payload{N: 1, S: "one"},
		`quote"key`, payload{N: 2},
		`back\slash`, payload{N: 3},
		"<html>&amp;", payload{S: "<b>&"},
		"ctl\x01key", payload{N: 4},
		"non-ascii-ключ", payload{N: 5},
		"bad-utf8-\xff\xfe", payload{N: 6},
		"nil-data", nil,
		"null-data", (*payload)(nil),
		"plain", payload{N: 7},
	)
	f.Add(uint8(0), "", intact)
	f.Add(uint8(0), "", intact[:len(intact)-7]) // torn tail
	crcAt := bytes.Index(intact, []byte(`"crc":`)) + len(`"crc":`)
	flipped := bytes.Clone(intact)
	flipped[crcAt] = '0' + (flipped[crcAt]-'0'+1)%10
	f.Add(uint8(0), "", flipped)
	line := appendedLines(f, "k", payload{N: 8})
	crc := strconv.FormatUint(uint64(recordCRC([]byte("k"), []byte(`{"n":8,"s":""}`))), 10)
	f.Add(uint8(0), "", bytes.Replace(line, []byte(crc), []byte("0"+crc), 1)) // leading-zero CRC
	f.Add(uint8(0), "", bytes.Replace(line, []byte("}}"), []byte("} }"), 1))  // space before the final }
	f.Add(uint8(0), "", append(bytes.Replace(line, []byte("\n"), []byte("\r\n"), 1), "\n\n"...))
	f.Add(uint8(0), "", []byte(`{"key":"k","crc":4294967296,"data":{}}`+"\n"+`{"key":"k","crc":0}`))
	f.Add(uint8(1), "key", []byte(`{"n":1}`))
	f.Add(uint8(1), `q"uote`, []byte(`{"n":1} `))
	f.Add(uint8(1), "k", []byte(`[1]`))
	f.Add(uint8(1), "k", []byte(nil))
	f.Add(uint8(1), "k", []byte(`{"n":{"m":[1,2,{}]},"s":"<"}`))
	f.Fuzz(func(t *testing.T, mode uint8, key string, data []byte) {
		body := data
		if mode%2 == 1 {
			crc := strconv.FormatUint(uint64(recordCRC([]byte(key), data)), 10)
			var b bytes.Buffer
			b.WriteString(`{"key":"` + key + `","crc":` + crc)
			if len(data) > 0 {
				b.WriteString(`,"data":`)
				b.Write(data)
			}
			b.WriteString("}\n")
			if line, err := json.Marshal(record{Key: key, CRC: recordCRC([]byte(key), data), Data: data}); err == nil {
				b.Write(append(line, '\n'))
			}
			body = b.Bytes()
		}
		checkAgainstReference(t, append(bytes.Clone(headerLine), body...))
	})
}

// TestParseRunSplits: cut anywhere, two runs merged as parseRecords merges
// them give what one run gives, so no line is lost or parsed twice at a
// boundary between goroutines.
func TestParseRunSplits(t *testing.T) {
	line := appendedLines(t, "k", payload{N: 1})
	body := slices.Concat(
		appendedLines(t, "a", payload{N: 1, S: "one"}, "b", nil, `q"uote`, payload{N: 2}),
		[]byte("\n\r\n"), bytes.Replace(line, []byte("\n"), []byte("\r\n"), 1),
		[]byte("not json\n\n"), line, line[:len(line)-5])
	whole := parseRun(body, 0, len(body), parseRecord)
	if len(whole.recs) != 5 || whole.dropped != 2 {
		t.Fatalf("one run: %d records, %d dropped; want 5, 2", len(whole.recs), whole.dropped)
	}
	for cut := 0; cut <= len(body); cut++ {
		a, b := parseRun(body, 0, cut, parseRecord), parseRun(body, cut, len(body), parseRecord)
		merged := run[entry]{append(a.recs, b.recs...), a.dropped + b.dropped, b.tooLong}
		if !reflect.DeepEqual(merged, whole) {
			t.Fatalf("cut at %d: two runs %+v, one run %+v", cut, merged, whole)
		}
	}
}

// TestReadLineCap: a line of maxLine bytes or more ends the read with
// bufio.ErrTooLong and keeps the records before it, as the reference
// reader's bufio.Scanner does; one byte shorter, it is read (and dropped
// as malformed). The typed form does the same.
func TestReadLineCap(t *testing.T) {
	before := appendedLines(t, "before", payload{N: 1})
	after := append([]byte("\n"), appendedLines(t, "after", payload{N: 2})...)
	for _, n := range []int{maxLine - 1, maxLine} {
		long := bytes.Repeat([]byte("x"), n)
		for _, tail := range [][]byte{nil, after} {
			journal := slices.Concat(headerLine, before, long, tail)
			set, err := checkAgainstReference(t, journal)
			if (n == maxLine) != errors.Is(err, bufio.ErrTooLong) || !set.Has("before") {
				t.Errorf("line of %d bytes, %d after it: error %v, records %q", n, len(tail), err, set.Keys)
			}
			checkTypedAgainstReference[payload](t, journal)
		}
	}
	checkAgainstReference(t, bytes.Repeat([]byte("x"), maxLine))
	checkTypedAgainstReference[payload](t, bytes.Repeat([]byte("x"), maxLine))
}

// referenceDecode is Decode[T] as it was before the typed reader: each
// record of a loaded Set unmarshalled into a T, in the order of s.Keys,
// with a zero Value where json.Unmarshal fails.
func referenceDecode[T any](s Set) []Decoded[T] {
	out := make([]Decoded[T], len(s.Keys))
	for i, key := range s.Keys {
		d := &out[i]
		d.Key = key
		if d.Err = json.Unmarshal(s.Records[key], &d.Value); d.Err != nil {
			var zero T
			d.Value = zero
		}
	}
	return out
}

// checkTypedAgainstReference requires the typed reader to return, for
// journal, what referenceDecode returns over the reference reader's Set:
// the same keys in journal order, equal values, the same per-record
// errors, Dropped count and error.
func checkTypedAgainstReference[T any](t *testing.T, journal []byte) {
	t.Helper()
	set, order, wantErr := referenceRead(bytes.NewReader(journal))
	if set.Records != nil {
		set.Keys = lastOccurrences(order)
	}
	got, gotErr := loadAs[T](journal, nil)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%T: error %v, reference %v", got, gotErr, wantErr)
	}
	checkDecoded(t, got, set)
}

// checkDecoded requires got to hold what referenceDecode returns for set,
// and set's Dropped count.
func checkDecoded[T any](t *testing.T, got Typed[T], set Set) {
	t.Helper()
	want := referenceDecode[T](set)
	if got.Dropped != set.Dropped || len(got.Records) != len(want) {
		t.Fatalf("%T: %d records, %d dropped; reference %d, %d", got, len(got.Records), got.Dropped, len(want), set.Dropped)
	}
	for i, g := range got.Records {
		if w := want[i]; g.Key != w.Key || !reflect.DeepEqual(g.Value, w.Value) || fmt.Sprint(g.Err) != fmt.Sprint(w.Err) {
			t.Fatalf("%T: record %d is %q %+v %v, reference %q %+v %v", got, i, g.Key, g.Value, g.Err, w.Key, w.Value, w.Err)
		}
	}
}

// FuzzLoadAs holds the typed reader to referenceDecode over the
// reference reader, for a type the exact decoder reads (sample) and one
// it declines (payload, which has tags). The modes are FuzzReadJournal's:
// 0 reads the fuzzed bytes as record lines, 1 frames the fuzzed key and
// data into record lines with a matching CRC, so that data of every shape
// reaches both the exact decoder and json.Unmarshal.
func FuzzLoadAs(f *testing.F) {
	var recs []any
	for i, s := range samples() {
		recs = append(recs, fmt.Sprintf("s%d", i), s)
	}
	recs = append(recs, "p", payload{N: 1, S: "one"}, "nil-data", nil, "s0", samples()[1])
	intact := appendedLines(f, recs...)
	f.Add(uint8(0), "", intact)
	f.Add(uint8(0), "", intact[:len(intact)-9]) // torn tail
	sampleLine := appendedLines(f, "k", samples()[2])
	f.Add(uint8(0), "", bytes.Replace(sampleLine, []byte(`"Int":`), []byte(`"Int":0`), 1))
	f.Add(uint8(0), "", bytes.Replace(sampleLine, []byte(`"crc":`), []byte(`"crc":0`), 1))
	crcEnd := bytes.Index(sampleLine, []byte(`,"data":`)) - 1
	flipped := bytes.Clone(sampleLine)
	flipped[crcEnd] = '0' + (flipped[crcEnd]-'0'+1)%10
	f.Add(uint8(0), "", flipped) // an exact-shape line with a wrong CRC
	f.Add(uint8(0), "", bytes.Replace(sampleLine, []byte("}}"), []byte("} }"), 1))
	f.Add(uint8(0), "", append(bytes.Replace(sampleLine, []byte("\n"), []byte("\r\n"), 1), "\n\n"...))
	for _, s := range samples() {
		data, _ := json.Marshal(s)
		f.Add(uint8(1), "k", data)
	}
	f.Add(uint8(1), "k", []byte(`{"n":1,"s":"x"}`))
	f.Add(uint8(1), "k", []byte(nil))
	f.Add(uint8(1), "k", []byte(`[1]`))
	f.Fuzz(func(t *testing.T, mode uint8, key string, data []byte) {
		body := data
		if mode%2 == 1 {
			crc := strconv.FormatUint(uint64(recordCRC([]byte(key), data)), 10)
			var b bytes.Buffer
			b.WriteString(`{"key":"` + key + `","crc":` + crc)
			if len(data) > 0 {
				b.WriteString(`,"data":`)
				b.Write(data)
			}
			b.WriteString("}\n")
			if line, err := json.Marshal(record{Key: key, CRC: recordCRC([]byte(key), data), Data: data}); err == nil {
				b.Write(append(line, '\n'))
			}
			body = b.Bytes()
		}
		journal := append(bytes.Clone(headerLine), body...)
		checkTypedAgainstReference[sample](t, journal)
		checkTypedAgainstReference[payload](t, journal)
	})
}

// TestDecodeInJournalOrder: over a segmented journal whose keys repeat
// across segments and some of whose records do not decode, the typed
// reader returns each key once, at its last intact record's place, with
// the value or error that json.Unmarshal gives for that record alone; for
// a type with an exact decoder, records in the exact shape and records
// that need json.Unmarshal mix.
func TestDecodeInJournalOrder(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmented(dir, "res", 2048)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("k%02d", (i*7)%23)
		var data any = samples()[i%len(samples())]
		switch i % 6 {
		case 1:
			data = json.RawMessage(`{"Int":"not a number"}`)
		case 3:
			data = nil
		case 4:
			data = json.RawMessage(`{"n":2,"s":"x"}`)
		case 5:
			data = payload{N: i, S: strings.Repeat("s", i%5)}
		}
		if _, err := s.Append(key, data); err != nil {
			t.Fatal(err)
		}
		order = append(order, key)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := s.Segments(); n < 3 {
		t.Fatalf("precondition: %d segments, want at least 3", n)
	}
	set, err := LoadSegmented(dir, "res")
	if err != nil {
		t.Fatal(err)
	}
	if want := lastOccurrences(order); !reflect.DeepEqual(set.Keys, want) {
		t.Fatalf("keys %q, want %q", set.Keys, want)
	}
	checkSegmentedAs[sample](t, dir, set)
	checkSegmentedAs[payload](t, dir, set)
	exact, bad := 0, 0
	for _, key := range set.Keys {
		var v sample
		switch {
		case decodeExact(exactFor(reflect.TypeFor[sample]()), set.Records[key], reflect.ValueOf(&v).Elem()):
			exact++
		case json.Unmarshal(set.Records[key], &v) != nil:
			bad++
		}
	}
	if exact == 0 || bad == 0 || exact+bad == len(set.Keys) {
		t.Errorf("precondition: of %d records, %d exact and %d failing to decode as samples", len(set.Keys), exact, bad)
	}
}

// checkSegmentedAs requires LoadSegmentedAs[T] to return, for the
// segmented journal res in dir whose loaded Set is set, what
// referenceDecode returns for set.
func checkSegmentedAs[T any](t *testing.T, dir string, set Set) {
	t.Helper()
	got, err := LoadSegmentedAs[T](dir, "res")
	if err != nil {
		t.Fatal(err)
	}
	checkDecoded(t, got, set)
}
