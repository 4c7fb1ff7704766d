package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"unsafe"
)

// The artifact codec is a fixed-width, mmap-able trace format for sharing
// one decoded trace across OS processes. Where the MLCT binary codec
// optimizes for bytes on disk (delta varints, ~2 B/ref) and pays a decode
// pass per consumer, the MLCA artifact optimizes for open cost: its record
// region is laid out exactly like the in-memory []Ref backing a
// trace.Arena, so opening an artifact is a checksum pass over mapped pages
// — no per-reference decode, no per-process heap copy, and the page cache
// shares the bytes between every process simulating the same trace.
//
// File layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "MLCA"
//	4       1     version (1)
//	5       3     reserved, zero
//	8       8     reference count
//	16      4     CRC-32C (Castagnoli) of the record region
//	20      12    reserved, zero
//	32      16*n  records
//
// Each record is 16 bytes: address (uint64), pid (uint16), kind (uint8),
// five zero pad bytes — the Go memory layout of trace.Ref on little-endian
// machines, which is what makes the zero-copy cast safe. The file size
// must be exactly header + 16*count; anything else is corruption.
const (
	artifactMagic      = "MLCA"
	artifactVersion    = 1
	artifactHeaderSize = 32
	artifactRecordSize = 16
)

// The zero-copy cast in openMapped requires the on-disk record layout to
// coincide with Go's layout of Ref. Sizeof is checked at compile time
// here; field offsets and host endianness are checked at runtime by
// refLayoutMatchesArtifact.
var _ [artifactRecordSize]byte = [unsafe.Sizeof(Ref{})]byte{}

// castagnoli is the CRC-32C table; Castagnoli has hardware support on
// amd64/arm64, keeping the open-time integrity pass at memory speed.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// refLayoutMatchesArtifact reports whether a []Ref can alias the record
// region of a mapped artifact directly: little-endian host and the field
// offsets the format prescribes. On exotic hosts OpenArtifact silently
// uses the portable copying path instead.
func refLayoutMatchesArtifact() bool {
	var r Ref
	if unsafe.Offsetof(r.Addr) != 0 || unsafe.Offsetof(r.PID) != 8 || unsafe.Offsetof(r.Kind) != 10 {
		return false
	}
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// putArtifactHeader fills a 32-byte header.
func putArtifactHeader(hdr []byte, count uint64, crc uint32) {
	for i := range hdr[:artifactHeaderSize] {
		hdr[i] = 0
	}
	copy(hdr, artifactMagic)
	hdr[4] = artifactVersion
	binary.LittleEndian.PutUint64(hdr[8:16], count)
	binary.LittleEndian.PutUint32(hdr[16:20], crc)
}

// parseArtifactHeader validates a header against the total file size and
// returns the record count and expected checksum.
func parseArtifactHeader(hdr []byte, fileSize int64) (count int64, crc uint32, err error) {
	if len(hdr) < artifactHeaderSize {
		return 0, 0, fmt.Errorf("trace: artifact header truncated at %d bytes (%w)", len(hdr), ErrCorrupt)
	}
	if string(hdr[:4]) != artifactMagic {
		return 0, 0, fmt.Errorf("trace: bad artifact magic %q (%w)", hdr[:4], ErrCorrupt)
	}
	if hdr[4] != artifactVersion {
		return 0, 0, fmt.Errorf("trace: unsupported artifact version %d (%w)", hdr[4], ErrCorrupt)
	}
	// The writer keeps every reserved byte zero; a set bit means damage or
	// a future format this version cannot interpret.
	for _, i := range []int{5, 6, 7} {
		if hdr[i] != 0 {
			return 0, 0, fmt.Errorf("trace: reserved artifact header byte %d is %#x (%w)", i, hdr[i], ErrCorrupt)
		}
	}
	for i := 20; i < artifactHeaderSize; i++ {
		if hdr[i] != 0 {
			return 0, 0, fmt.Errorf("trace: reserved artifact header byte %d is %#x (%w)", i, hdr[i], ErrCorrupt)
		}
	}
	n := binary.LittleEndian.Uint64(hdr[8:16])
	if n > uint64((1<<63-1-artifactHeaderSize)/artifactRecordSize) {
		return 0, 0, fmt.Errorf("trace: artifact count %d overflows (%w)", n, ErrCorrupt)
	}
	if want := artifactHeaderSize + int64(n)*artifactRecordSize; fileSize != want {
		return 0, 0, fmt.Errorf("trace: artifact is %d bytes, want %d for %d refs (%w)",
			fileSize, want, n, ErrCorrupt)
	}
	return int64(n), binary.LittleEndian.Uint32(hdr[16:20]), nil
}

// putArtifactRecord encodes one reference at rec[0:16].
func putArtifactRecord(rec []byte, r Ref) {
	binary.LittleEndian.PutUint64(rec[0:8], r.Addr)
	binary.LittleEndian.PutUint16(rec[8:10], r.PID)
	rec[10] = byte(r.Kind)
	rec[11], rec[12], rec[13], rec[14], rec[15] = 0, 0, 0, 0, 0
}

// marshalArtifact encodes a whole artifact in memory — the reference
// implementation the file writer mirrors, and the fuzz target's encoder.
func marshalArtifact(refs []Ref) []byte {
	out := make([]byte, artifactHeaderSize+len(refs)*artifactRecordSize)
	for i, r := range refs {
		putArtifactRecord(out[artifactHeaderSize+i*artifactRecordSize:], r)
	}
	crc := crc32.Checksum(out[artifactHeaderSize:], castagnoli)
	putArtifactHeader(out, uint64(len(refs)), crc)
	return out
}

// unmarshalArtifact decodes a whole in-memory artifact with the portable
// field-by-field path, validating header, size, and checksum. It is the
// copying counterpart of the mmap cast and the fuzz target's decoder.
func unmarshalArtifact(data []byte) ([]Ref, error) {
	count, crc, err := parseArtifactHeader(data, int64(len(data)))
	if err != nil {
		return nil, err
	}
	body := data[artifactHeaderSize:]
	if got := crc32.Checksum(body, castagnoli); got != crc {
		return nil, fmt.Errorf("trace: artifact checksum %#08x, header says %#08x (%w)", got, crc, ErrCorrupt)
	}
	refs := make([]Ref, count)
	for i := range refs {
		rec := body[i*artifactRecordSize:]
		refs[i] = Ref{
			Addr: binary.LittleEndian.Uint64(rec[0:8]),
			PID:  binary.LittleEndian.Uint16(rec[8:10]),
			Kind: Kind(rec[10]),
		}
	}
	return refs, nil
}

// WriteArtifact writes the arena's references to path in the artifact
// format, replacing any existing file. The write is streamed through a
// fixed buffer (no second copy of the trace) and synced before close so a
// sweep fleet never maps a half-written artifact.
func WriteArtifact(path string, a *Arena) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = writeArtifactTo(f, a.Refs())
	if err2 := f.Close(); err == nil {
		err = err2
	}
	if err != nil {
		os.Remove(path)
		return fmt.Errorf("trace: write artifact %s: %w", path, err)
	}
	return nil
}

func writeArtifactTo(f *os.File, refs []Ref) error {
	// Header placeholder first; the checksum is patched in once the record
	// region has streamed past the CRC.
	var hdr [artifactHeaderSize]byte
	if _, err := f.Write(hdr[:]); err != nil {
		return err
	}
	const chunkRecs = 4096
	buf := make([]byte, chunkRecs*artifactRecordSize)
	crc := uint32(0)
	for len(refs) > 0 {
		n := len(refs)
		if n > chunkRecs {
			n = chunkRecs
		}
		for i, r := range refs[:n] {
			if !r.Kind.Valid() {
				return fmt.Errorf("cannot encode invalid kind %d", r.Kind)
			}
			putArtifactRecord(buf[i*artifactRecordSize:], r)
		}
		chunk := buf[:n*artifactRecordSize]
		crc = crc32.Update(crc, castagnoli, chunk)
		if _, err := f.Write(chunk); err != nil {
			return err
		}
		refs = refs[n:]
	}
	// Count what was written, not what was asked for: refs was consumed.
	st, err := f.Stat()
	if err != nil {
		return err
	}
	count := (st.Size() - artifactHeaderSize) / artifactRecordSize
	putArtifactHeader(hdr[:], uint64(count), crc)
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		return err
	}
	return f.Sync()
}

// ErrArtifactBusy is returned by Close while the artifact is pinned by
// in-flight readers: unmapping under them would turn their next cursor
// read into a fault. The caller releases (or waits for) the readers and
// closes again.
var ErrArtifactBusy = errors.New("trace: artifact pinned by active readers")

// Artifact is an open trace artifact: an Arena plus the resources backing
// it. A mapped artifact's arena aliases the file — shared page cache, zero
// per-process copy — and every Cursor and Refs slice is invalidated by
// Close. The copying fallback has no such constraint, but callers should
// treat Close as the end of the arena's life either way.
//
// Concurrent readers guard their cursors with Pin/Unpin: a pinned
// artifact refuses to Close (ErrArtifactBusy) instead of racing the
// readers, and Pin after Close fails instead of handing out a poisoned
// arena.
type Artifact struct {
	arena    *Arena
	mapped   bool
	srcPath  string
	checksum uint32

	mu     sync.Mutex
	pins   int
	closed bool
	munmap func() error // nil once closed or for the copying path
}

// Arena returns the artifact's trace. It must not be used after Close when
// the artifact is mapped.
func (a *Artifact) Arena() *Arena { return a.arena }

// Len returns the number of references in the artifact.
func (a *Artifact) Len() int { return a.arena.Len() }

// Checksum returns the CRC-32C of the artifact's record region, the
// content identity a workload cache keys on.
func (a *Artifact) Checksum() uint32 { return a.checksum }

// Pin registers an in-flight reader: until the matching Unpin, Close
// refuses to release the mapping instead of invalidating the reader's
// cursors mid-read. Pin fails once the artifact is closed.
func (a *Artifact) Pin() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return fmt.Errorf("trace: artifact %s is closed", a.srcPath)
	}
	a.pins++
	return nil
}

// Unpin releases a Pin. It panics on a pin/unpin imbalance — that is a
// caller bug that would otherwise surface as a far-away Close failure.
func (a *Artifact) Unpin() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.pins <= 0 {
		panic("trace: artifact Unpin without Pin")
	}
	a.pins--
}

// Close releases the mapping (if any). While readers hold pins it fails
// with ErrArtifactBusy and releases nothing — their cursors stay valid and
// a later Close can succeed. It is safe to call twice.
func (a *Artifact) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.pins > 0 {
		return fmt.Errorf("trace: close artifact %s: %d reader(s) (%w)", a.srcPath, a.pins, ErrArtifactBusy)
	}
	a.closed = true
	if a.munmap == nil {
		return nil
	}
	m := a.munmap
	a.munmap = nil
	// Poison the arena so a use-after-close fails loudly at the cursor
	// level instead of faulting on unmapped pages.
	a.arena.refs = nil
	return m()
}

// OpenArtifact opens a trace artifact written by WriteArtifact. On
// little-endian hosts with mmap support the record region is mapped
// read-only straight into arena form — the only O(n) work is the CRC-32C
// integrity pass, which streams at memory speed and populates the shared
// page cache; there is no per-reference decode and no per-process copy.
// When mmap is unavailable, fails, or the host layout does not match the
// format, OpenArtifact falls back to reading and decoding a private copy.
// The caller must Close the artifact; a mapped artifact's arena is invalid
// afterwards.
func OpenArtifact(path string) (*Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	var hdr [artifactHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("trace: %s: artifact header truncated (%w)", path, ErrCorrupt)
		}
		return nil, err
	}
	count, crc, err := parseArtifactHeader(hdr[:], st.Size())
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}

	if refLayoutMatchesArtifact() {
		if a, err := openMapped(f, path, count, crc); err == nil {
			return a, nil
		} else if isCorruptArtifact(err) {
			// The bytes themselves are bad; the copying path would read the
			// same bytes and fail the same way. Don't mask it.
			return nil, err
		}
		// mmap itself failed (unsupported filesystem, resource limits,
		// platform without the syscall): fall through to the copying path.
	}
	return openCopied(f, path, count, crc)
}

// openMapped maps the whole file and casts the record region to []Ref.
func openMapped(f *os.File, path string, count int64, crc uint32) (*Artifact, error) {
	size := artifactHeaderSize + count*artifactRecordSize
	data, unmap, err := mmapFile(f, size)
	if err != nil {
		return nil, err
	}
	if got := crc32.Checksum(data[artifactHeaderSize:], castagnoli); got != crc {
		unmap()
		return nil, fmt.Errorf("trace: %s: artifact checksum %#08x, header says %#08x (%w)",
			path, got, crc, ErrCorrupt)
	}
	var refs []Ref
	if count > 0 {
		p := unsafe.Add(unsafe.Pointer(&data[0]), artifactHeaderSize)
		if uintptr(p)%unsafe.Alignof(Ref{}) != 0 {
			// Cannot happen with a page-aligned mapping and a 32-byte
			// header, but an unaligned cast would be UB; take the copy.
			unmap()
			return nil, fmt.Errorf("trace: %s: mapping misaligned", path)
		}
		refs = unsafe.Slice((*Ref)(p), count)
	}
	return &Artifact{
		arena:    &Arena{refs: refs},
		mapped:   true,
		munmap:   unmap,
		srcPath:  path,
		checksum: crc,
	}, nil
}

// openCopied reads the record region into a private []Ref — the portable
// path, and the fallback when mmap is unavailable.
func openCopied(f *os.File, path string, count int64, crc uint32) (*Artifact, error) {
	body := make([]byte, count*artifactRecordSize)
	if _, err := f.ReadAt(body, artifactHeaderSize); err != nil && count > 0 {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	if got := crc32.Checksum(body, castagnoli); got != crc {
		return nil, fmt.Errorf("trace: %s: artifact checksum %#08x, header says %#08x (%w)",
			path, got, crc, ErrCorrupt)
	}
	refs := make([]Ref, count)
	for i := range refs {
		rec := body[i*artifactRecordSize:]
		refs[i] = Ref{
			Addr: binary.LittleEndian.Uint64(rec[0:8]),
			PID:  binary.LittleEndian.Uint16(rec[8:10]),
			Kind: Kind(rec[10]),
		}
	}
	return &Artifact{arena: &Arena{refs: refs}, srcPath: path, checksum: crc}, nil
}

// ArtifactChecksum reads just the header of an artifact file and returns
// the CRC-32C it declares for the record region — the cheap (32-byte read)
// content identity for cache keys, without mapping or validating the body.
func ArtifactChecksum(path string) (uint32, error) {
	_, crc, err := artifactHeaderStat(path)
	return crc, err
}

// ArtifactRefs reads just the header of an artifact file and returns the
// record count it declares — how the admission cost model sizes a workload
// for a few dozen bytes of I/O, without mapping or validating the body.
func ArtifactRefs(path string) (int64, error) {
	count, _, err := artifactHeaderStat(path)
	return count, err
}

// artifactHeaderStat opens path, validates its 32-byte header against the
// file size, and returns the declared record count and CRC-32C.
func artifactHeaderStat(path string) (int64, uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	var hdr [artifactHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, 0, fmt.Errorf("trace: %s: artifact header truncated (%w)", path, ErrCorrupt)
		}
		return 0, 0, err
	}
	count, crc, err := parseArtifactHeader(hdr[:], st.Size())
	if err != nil {
		return 0, 0, fmt.Errorf("trace: %s: %w", path, err)
	}
	return count, crc, nil
}

// isCorruptArtifact distinguishes "the file's bytes are bad" from "this
// process could not map the file".
func isCorruptArtifact(err error) bool { return errors.Is(err, ErrCorrupt) }
