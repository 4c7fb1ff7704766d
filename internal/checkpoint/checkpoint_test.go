package checkpoint

import (
	"encoding/json"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type payload struct {
	N int    `json:"n"`
	S string `json:"s"`
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append("a", payload{N: 1, S: "one"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append("b", payload{N: 2, S: "two"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	set, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 2 || set.Dropped != 0 {
		t.Fatalf("loaded %d records, %d dropped; want 2, 0", set.Len(), set.Dropped)
	}
	var p payload
	if err := json.Unmarshal(set.Records["b"], &p); err != nil {
		t.Fatal(err)
	}
	if p != (payload{N: 2, S: "two"}) {
		t.Errorf("record b = %+v", p)
	}
}

func TestReopenAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append("a", nil); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append("b", nil); err != nil {
		t.Fatal(err)
	}
	j.Close()

	set, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !set.Has("a") || !set.Has("b") {
		t.Errorf("records after reopen = %v", set.Records)
	}
	// Only one header line must exist.
	raw, _ := os.ReadFile(path)
	if n := strings.Count(string(raw), Format); n != 1 {
		t.Errorf("header written %d times", n)
	}
}

func TestTornTailDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append("a", payload{N: 1})
	j.Append("b", payload{N: 2})
	j.Close()

	// Simulate a crash mid-append: truncate the last record in half.
	raw, _ := os.ReadFile(path)
	os.WriteFile(path, raw[:len(raw)-10], 0o644)

	set, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !set.Has("a") || set.Has("b") {
		t.Errorf("torn tail: records = %v", set.Records)
	}
	if set.Dropped != 1 {
		t.Errorf("dropped = %d, want 1", set.Dropped)
	}
}

func TestCRCMismatchDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append("a", payload{S: "intact"})
	j.Append("b", payload{S: "corrupt"})
	j.Close()

	// Flip one byte inside the payload of record b without breaking JSON.
	raw, _ := os.ReadFile(path)
	text := strings.Replace(string(raw), "corrupt", "corrupX", 1)
	os.WriteFile(path, []byte(text), 0o644)

	set, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !set.Has("a") || set.Has("b") {
		t.Errorf("CRC mismatch: records = %v", set.Records)
	}
	if set.Dropped != 1 {
		t.Errorf("dropped = %d, want 1", set.Dropped)
	}
}

func TestVersionMismatchRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	os.WriteFile(path, []byte(`{"format":"mlcache-checkpoint","version":99}`+"\n"), 0o644)
	if _, err := Load(path); err == nil {
		t.Error("future version accepted by Load")
	}
	if _, err := Open(path); err == nil {
		t.Error("future version accepted by Open")
	}
}

func TestNotACheckpointRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	os.WriteFile(path, []byte("size,cycle\n16384,20\n"), 0o644)
	if _, err := Load(path); err == nil {
		t.Error("CSV accepted as checkpoint")
	}
}

func TestDuplicateKeyKeepsLast(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	j, _ := Open(path)
	j.Append("a", payload{N: 1})
	j.Append("a", payload{N: 2})
	j.Close()
	set, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	var p payload
	json.Unmarshal(set.Records["a"], &p)
	if p.N != 2 {
		t.Errorf("duplicate key kept N=%d, want 2", p.N)
	}
}

// TestRecordCRCMatchesDigest: recordCRC's three crc32.Update calls give
// the CRC a crc32.NewIEEE digest fed key, a zero byte and data gives, so
// every journal written before keeps its CRCs.
func TestRecordCRCMatchesDigest(t *testing.T) {
	digest := func(key string, data []byte) uint32 {
		h := crc32.NewIEEE()
		io.WriteString(h, key)
		h.Write([]byte{0})
		h.Write(data)
		return h.Sum32()
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		key := make([]byte, rng.Intn(80))
		data := make([]byte, rng.Intn(1200))
		rng.Read(key)
		rng.Read(data)
		if got, want := recordCRC(key, data), digest(string(key), data); got != want {
			t.Fatalf("recordCRC(%q, %d bytes) = %d, digest %d", key, len(data), got, want)
		}
	}
	if got, want := recordCRC(nil, nil), digest("", nil); got != want {
		t.Fatalf("empty record: %d, digest %d", got, want)
	}
}
