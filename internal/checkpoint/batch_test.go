package checkpoint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// batchEntries is a batch with data, without data (nil), and with data
// that does not marshal (NaN), which Append refuses and AppendBatch
// leaves out.
func batchEntries() []Entry {
	return []Entry{
		{Key: "a", Data: payload{N: 1, S: "one"}},
		{Key: "b"},
		{Key: "nan", Data: math.NaN()},
		{Key: "c", Data: json.RawMessage(`{"n": 3}`)},
		{Key: "a", Data: payload{N: 4, S: "four"}},
	}
}

// TestAppendBatchMatchesAppends: a journal written by one AppendBatch is
// byte-identical to one written by appending the same entries one by one,
// and both report the entry that does not marshal.
func TestAppendBatchMatchesAppends(t *testing.T) {
	dir := t.TempDir()
	one, batch := filepath.Join(dir, "one.ckpt"), filepath.Join(dir, "batch.ckpt")

	j, err := Open(one)
	if err != nil {
		t.Fatal(err)
	}
	var failed []string
	for _, e := range batchEntries() {
		if err := j.Append(e.Key, e.Data); err != nil {
			failed = append(failed, e.Key)
		}
	}
	j.Close()
	if fmt.Sprint(failed) != "[nan]" {
		t.Fatalf("Append failed for %v, want [nan]", failed)
	}

	j, err = Open(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendBatch(batchEntries()); err == nil || !strings.Contains(err.Error(), `"nan"`) {
		t.Fatalf("AppendBatch error %v, want the NaN entry's", err)
	}
	if err := j.AppendBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	j.Close()

	want, _ := os.ReadFile(one)
	got, _ := os.ReadFile(batch)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendBatch wrote\n%s\nper-record appends wrote\n%s", got, want)
	}
	set, err := Load(batch)
	if err != nil || set.Len() != 3 || set.Dropped != 0 || fmt.Sprint(set.Keys) != "[b c a]" {
		t.Fatalf("loaded %v (err %v, %d dropped), want keys [b c a]", set.Keys, err, set.Dropped)
	}
}

// TestAppendBatchTornInsideLine: a crash during a batch's write that
// leaves its k-th line torn loses that line and everything after it:
// the journal loads k-1 records and drops one line, and Open truncates
// the torn line, so the next append lands on a line of its own.
func TestAppendBatchTornInsideLine(t *testing.T) {
	const n = 5
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: fmt.Sprintf("key-%d", i), Data: payload{N: i, S: "batched"}}
	}
	for k := 1; k <= n; k++ {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.ckpt")
			j, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			header := j.Size()
			if err := j.AppendBatch(entries); err != nil {
				t.Fatal(err)
			}
			j.Close()

			// Cut the file in the middle of the batch's k-th line.
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.SplitAfter(data[header:], []byte{'\n'})
			cut := header
			for _, l := range lines[:k-1] {
				cut += int64(len(l))
			}
			cut += int64(len(lines[k-1]) / 2)
			if err := os.Truncate(path, cut); err != nil {
				t.Fatal(err)
			}

			set, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if set.Len() != k-1 || set.Dropped != 1 {
				t.Fatalf("torn batch loads %d records, %d dropped; want %d, 1", set.Len(), set.Dropped, k-1)
			}

			j, err = Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Append("after", payload{N: -1}); err != nil {
				t.Fatal(err)
			}
			j.Close()
			set, err = Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if set.Len() != k || set.Dropped != 0 || !set.Has("after") || set.Has(entries[k-1].Key) {
				t.Fatalf("after reopen: keys %v, %d dropped; want the first %d and after", set.Keys, set.Dropped, k-1)
			}
		})
	}
}

// TestCompactWritesOneBatch: Compact writes its survivors with one
// AppendBatch, and the compacted segment is byte-identical to a journal
// that appends each survivor's last record one by one in sorted key
// order.
func TestCompactWritesOneBatch(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmented(dir, "res", 300)
	if err != nil {
		t.Fatal(err)
	}
	last := map[string]any{}
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("key-%02d", (i*7)%23)
		var data any = segPayload{N: i}
		if i%5 == 0 {
			data = nil
		}
		if _, err := s.Append(key, data); err != nil {
			t.Fatal(err)
		}
		last[key] = data
	}
	if n := s.Segments(); n < 2 {
		t.Fatalf("precondition: segments = %d, want >= 2", n)
	}
	keep := func(key string, _ json.RawMessage) bool { return key != "key-07" }
	if err := s.Compact(keep); err != nil {
		t.Fatal(err)
	}
	s.Close()
	ns, err := segmentNumbers(dir, "res")
	if err != nil || len(ns) != 1 {
		t.Fatalf("segments after compact %v (err %v), want one", ns, err)
	}
	got, err := os.ReadFile(segmentPath(dir, "res", ns[0]))
	if err != nil {
		t.Fatal(err)
	}

	ref := filepath.Join(t.TempDir(), "ref.ckpt")
	j, err := Open(ref)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 23; i++ {
		key := fmt.Sprintf("key-%02d", i)
		if data, ok := last[key]; ok && keep(key, nil) {
			if err := j.Append(key, data); err != nil {
				t.Fatal(err)
			}
		}
	}
	j.Close()
	want, _ := os.ReadFile(ref)
	if !bytes.Equal(got, want) {
		t.Fatalf("compacted segment\n%s\nper-record appends in key order\n%s", got, want)
	}
}
