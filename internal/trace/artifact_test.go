package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func writeTempArtifact(t *testing.T, refs []Ref) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.mlca")
	if err := WriteArtifact(path, NewArena(refs)); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestArtifactRoundTrip(t *testing.T) {
	refs := sampleRefs(1000)
	path := writeTempArtifact(t, refs)

	a, err := OpenArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.Len() != len(refs) {
		t.Fatalf("artifact has %d refs, want %d", a.Len(), len(refs))
	}
	got := a.Arena().Refs()
	for i := range refs {
		if got[i] != refs[i] {
			t.Fatalf("ref %d: %v != %v", i, got[i], refs[i])
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil { // double close is a no-op
		t.Fatal(err)
	}
}

func TestArtifactEmptyTrace(t *testing.T) {
	path := writeTempArtifact(t, nil)
	a, err := OpenArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.Len() != 0 {
		t.Fatalf("empty artifact has %d refs", a.Len())
	}
	if _, err := a.Arena().Cursor().Next(); err == nil {
		t.Fatal("cursor over empty artifact yielded a ref")
	}
}

func TestArtifactMappedAndCopiedAgree(t *testing.T) {
	refs := sampleRefs(4096)
	path := writeTempArtifact(t, refs)

	mapped, err := OpenArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, _ := f.Stat()
	var hdr [artifactHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		t.Fatal(err)
	}
	count, crc, err := parseArtifactHeader(hdr[:], st.Size())
	if err != nil {
		t.Fatal(err)
	}
	copied, err := openCopied(f, path, count, crc)
	if err != nil {
		t.Fatal(err)
	}
	defer copied.Close()
	if copied.mapped {
		t.Fatal("openCopied produced a mapped artifact")
	}
	m, c := mapped.Arena().Refs(), copied.Arena().Refs()
	if len(m) != len(c) {
		t.Fatalf("mapped %d refs, copied %d", len(m), len(c))
	}
	for i := range m {
		if m[i] != c[i] {
			t.Fatalf("ref %d: mapped %v, copied %v", i, m[i], c[i])
		}
	}
}

func TestArtifactWriteRejectsInvalidKind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.mlca")
	err := WriteArtifact(path, NewArena([]Ref{{Kind: Kind(7)}}))
	if err == nil {
		t.Fatal("WriteArtifact accepted an invalid kind")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("failed write left a partial artifact behind")
	}
}

// corrupt writes the artifact, applies mutate to its bytes, and returns a
// path to the damaged file.
func corrupt(t *testing.T, refs []Ref, mutate func([]byte) []byte) string {
	t.Helper()
	path := writeTempArtifact(t, refs)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestArtifactCorruption(t *testing.T) {
	refs := sampleRefs(100)
	cases := map[string]func([]byte) []byte{
		"bad magic":       func(d []byte) []byte { d[0] = 'X'; return d },
		"bad version":     func(d []byte) []byte { d[4] = 99; return d },
		"truncated head":  func(d []byte) []byte { return d[:10] },
		"truncated body":  func(d []byte) []byte { return d[:len(d)-7] },
		"extra bytes":     func(d []byte) []byte { return append(d, 0xAB) },
		"flipped record":  func(d []byte) []byte { d[artifactHeaderSize+40] ^= 0xFF; return d },
		"flipped crc":     func(d []byte) []byte { d[17] ^= 0x01; return d },
		"count too big":   func(d []byte) []byte { binary.LittleEndian.PutUint64(d[8:16], 1<<60); return d },
		"count too small": func(d []byte) []byte { binary.LittleEndian.PutUint64(d[8:16], 1); return d },
		"empty file":      func(d []byte) []byte { return nil },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			path := corrupt(t, refs, mutate)
			a, err := OpenArtifact(path)
			if err == nil {
				a.Close()
				t.Fatal("OpenArtifact accepted a corrupt file")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error is not ErrCorrupt: %v", err)
			}
		})
	}
}

func TestArtifactInMemoryRoundTrip(t *testing.T) {
	refs := sampleRefs(257)
	got, err := unmarshalArtifact(marshalArtifact(refs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(refs) {
		t.Fatalf("%d refs out, want %d", len(got), len(refs))
	}
	for i := range refs {
		if got[i] != refs[i] {
			t.Fatalf("ref %d: %v != %v", i, got[i], refs[i])
		}
	}
}

func TestLoadArenaRoutesBySuffix(t *testing.T) {
	refs := sampleRefs(200)
	dir := t.TempDir()

	// Artifact.
	apath := filepath.Join(dir, "t.mlca")
	if err := WriteArtifact(apath, NewArena(refs)); err != nil {
		t.Fatal(err)
	}
	// Binary.
	bpath := filepath.Join(dir, "t.mlct")
	bf, err := os.Create(bpath)
	if err != nil {
		t.Fatal(err)
	}
	bw := NewBinaryWriter(bf)
	for _, r := range refs {
		if err := bw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	bf.Close()

	for _, path := range []string{apath, bpath} {
		// The first n references, or all of them for n = 0.
		for _, n := range []int{0, 50} {
			want := n
			if n == 0 {
				want = len(refs)
			}
			arena, closer, _, err := LoadArena(path, int64(n), 0)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if arena.Len() != want {
				t.Fatalf("%s n=%d: %d refs, want %d", path, n, arena.Len(), want)
			}
			for i, r := range arena.Refs() {
				if r != refs[i] {
					t.Fatalf("%s: ref %d: %v != %v", path, i, r, refs[i])
				}
			}
			if err := closer.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestOpenArtifactZeroDecode is the acceptance bound for the format's whole
// point: opening an artifact of ≥1M references must not pay per-reference
// decode work. Two assertions: (a) the open path performs O(1) heap
// allocations — a decode would allocate the 16 MB []Ref; (b) opening is no
// slower than delta-varint-decoding the same trace, with a wide margin,
// since the only O(n) open work is a hardware CRC pass.
func TestOpenArtifactZeroDecode(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-ref artifact in -short mode")
	}
	const n = 1_000_000
	refs := sampleRefs(n)
	dir := t.TempDir()
	apath := filepath.Join(dir, "big.mlca")
	if err := WriteArtifact(apath, NewArena(refs)); err != nil {
		t.Fatal(err)
	}
	bpath := filepath.Join(dir, "big.mlct")
	bf, err := os.Create(bpath)
	if err != nil {
		t.Fatal(err)
	}
	bw := NewBinaryWriter(bf)
	for _, r := range refs {
		if err := bw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	bf.Close()

	// (a) Allocation bound. Only meaningful on the mmap path — the copying
	// fallback's single []Ref allocation is its documented cost.
	probe, err := OpenArtifact(apath)
	if err != nil {
		t.Fatal(err)
	}
	mapped := probe.mapped
	probe.Close()
	if mapped {
		allocs := testing.AllocsPerRun(5, func() {
			a, err := OpenArtifact(apath)
			if err != nil {
				t.Fatal(err)
			}
			if a.Len() != n {
				t.Fatalf("%d refs, want %d", a.Len(), n)
			}
			a.Close()
		})
		// The open path allocates file handles, the Artifact, and error
		// scaffolding — tens of objects, never one-per-ref.
		if allocs > 100 {
			t.Fatalf("OpenArtifact allocated %.0f objects for %d refs; decode work on the open path?", allocs, n)
		}
	}

	// (b) Time bound: best-of-3 open vs best-of-3 stream decode.
	openTime := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		a, err := OpenArtifact(apath)
		if err != nil {
			t.Fatal(err)
		}
		if a.Len() != n {
			t.Fatalf("%d refs, want %d", a.Len(), n)
		}
		if d := time.Since(start); d < openTime {
			openTime = d
		}
		a.Close()
	}
	decodeTime := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		data, err := os.ReadFile(bpath)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		tr, err := Collect(NewBinaryReader(bytes.NewReader(data)), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr) != n {
			t.Fatalf("decoded %d refs, want %d", len(tr), n)
		}
		if d := time.Since(start); d < decodeTime {
			decodeTime = d
		}
	}
	t.Logf("open %v vs stream decode %v (%d refs, mapped=%v)", openTime, decodeTime, n, mapped)
	if openTime > decodeTime {
		t.Fatalf("OpenArtifact (%v) slower than full stream decode (%v); per-ref work crept into the open path", openTime, decodeTime)
	}
}

func BenchmarkOpenArtifact1M(b *testing.B) {
	const n = 1_000_000
	path := filepath.Join(b.TempDir(), "bench.mlca")
	if err := WriteArtifact(path, NewArena(sampleRefs(n))); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(n * artifactRecordSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := OpenArtifact(path)
		if err != nil {
			b.Fatal(err)
		}
		if a.Len() != n {
			b.Fatalf("%d refs", a.Len())
		}
		a.Close()
	}
}

func BenchmarkStreamDecode1M(b *testing.B) {
	const n = 1_000_000
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	for _, r := range sampleRefs(n) {
		if err := w.Write(r); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.SetBytes(n * artifactRecordSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := Collect(NewBinaryReader(bytes.NewReader(data)), 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(tr) != n {
			b.Fatalf("%d refs", len(tr))
		}
	}
}

// TestArtifactCloseUnderConcurrentReaders: Close while pinned readers are
// mid-cursor must fail with ErrArtifactBusy and leave every reader's view
// of the trace intact; once the readers unpin, Close succeeds and the
// arena is poisoned.
func TestArtifactCloseUnderConcurrentReaders(t *testing.T) {
	refs := sampleRefs(50_000)
	path := writeTempArtifact(t, refs)
	a, err := OpenArtifact(path)
	if err != nil {
		t.Fatal(err)
	}

	// Each reader walks the arena and reports what it saw, but keeps its
	// pin until every Close below has been refused, so that no Close can
	// run with fewer than the readers' pins however the goroutines are
	// scheduled.
	const readers = 4
	start, hammered := make(chan struct{}), make(chan struct{})
	done := make(chan error, readers)
	for r := 0; r < readers; r++ {
		if err := a.Pin(); err != nil {
			t.Fatal(err)
		}
		go func() {
			defer a.Unpin()
			<-start
			done <- walkArena(a.Arena(), refs)
			<-hammered
		}()
	}

	// Hammer Close while the readers run: every call must refuse.
	close(start)
	for i := 0; i < 100; i++ {
		if err := a.Close(); !errors.Is(err, ErrArtifactBusy) {
			close(hammered)
			t.Fatalf("Close with %d pinned readers = %v, want ErrArtifactBusy", a.Pins(), err)
		}
	}
	close(hammered)
	for r := 0; r < readers; r++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	// Readers drained: Close must now succeed, and new pins must fail.
	for a.Pins() > 0 {
		time.Sleep(time.Millisecond)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("Close after readers released = %v", err)
	}
	if err := a.Pin(); err == nil {
		t.Fatal("Pin after Close succeeded")
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}

// walkArena reads every reference of arena through a cursor and reports
// the first that differs from refs, or a cursor that stops early.
func walkArena(arena *Arena, refs []Ref) error {
	c := arena.Cursor()
	for i := 0; ; i++ {
		ref, err := c.Next()
		switch {
		case err != nil && i != len(refs):
			return errors.New("reader stopped early")
		case err != nil:
			return nil
		case ref != refs[i]:
			return errors.New("reader saw a corrupted reference")
		}
	}
}

// TestArtifactChecksumHeaderOnly: the header checksum accessor agrees with
// the open artifact and rejects damage.
func TestArtifactChecksumHeaderOnly(t *testing.T) {
	refs := sampleRefs(100)
	path := writeTempArtifact(t, refs)

	sum, err := ArtifactChecksum(path)
	if err != nil {
		t.Fatal(err)
	}
	a, err := OpenArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.Checksum() != sum {
		t.Errorf("ArtifactChecksum = %#x, open artifact says %#x", sum, a.Checksum())
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xff
	bad := filepath.Join(t.TempDir(), "bad.mlca")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ArtifactChecksum(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("ArtifactChecksum on damaged header = %v, want ErrCorrupt", err)
	}
}

// TestArtifactRefsHeaderOnly: the record-count accessor reads only the
// header, agrees with a full open, and treats damage as ErrCorrupt — the
// contract the serve admission cost model leans on.
func TestArtifactRefsHeaderOnly(t *testing.T) {
	refs := sampleRefs(137)
	path := writeTempArtifact(t, refs)

	n, err := ArtifactRefs(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(refs)) {
		t.Errorf("ArtifactRefs = %d, want %d", n, len(refs))
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xff
	bad := filepath.Join(t.TempDir(), "bad.mlca")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ArtifactRefs(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("ArtifactRefs on damaged header = %v, want ErrCorrupt", err)
	}
}
