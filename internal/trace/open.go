package trace

import (
	"io"
	"os"
	"strings"
)

// Trace files are routed by suffix everywhere in the toolchain:
// ".mlca" is the fixed-width mmap artifact, ".bin"/".mlct" the compact
// delta-varint binary codec, anything else the text codec.

// IsArtifactPath reports whether path names an artifact file.
func IsArtifactPath(path string) bool { return strings.HasSuffix(path, ".mlca") }

// IsBinaryPath reports whether path names a binary-codec file.
func IsBinaryPath(path string) bool {
	return strings.HasSuffix(path, ".bin") || strings.HasSuffix(path, ".mlct")
}

type nopCloser struct{}

func (nopCloser) Close() error { return nil }

// OpenPath opens a trace file of any codec, routed by suffix, and returns
// a stream over it plus the resource to close when done. Artifact-backed
// streams are zero-copy cursors over the mapped file; closing invalidates
// them.
func OpenPath(path string) (Stream, io.Closer, error) {
	if IsArtifactPath(path) {
		a, err := OpenArtifact(path)
		if err != nil {
			return nil, nil, err
		}
		return a.Arena().Cursor(), a, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	if IsBinaryPath(path) {
		return NewBinaryReader(f), f, nil
	}
	return NewTextReader(f), f, nil
}

// LoadArena loads the first n references of the trace file at path into
// an Arena (all of them when n ≤ 0), routed by suffix. An artifact is
// opened zero-copy: the arena aliases the mapped file until the closer is
// closed, and a checksum-validated artifact has no corrupt records to
// skip. The other codecs decode only the references kept, skipping up to
// lenient corrupt records on the way when lenient is non-zero (negative
// means unlimited), and return a no-op closer; skipped counts the
// records skipped.
func LoadArena(path string, n int64, lenient int) (arena *Arena, closer io.Closer, skipped int64, err error) {
	if IsArtifactPath(path) {
		a, err := OpenArtifact(path)
		if err != nil {
			return nil, nil, 0, err
		}
		arena = a.Arena()
		if n > 0 && int64(arena.Len()) > n {
			arena = NewArena(arena.refs[:n])
		}
		return arena, a, 0, nil
	}
	s, c, err := OpenPath(path)
	if err != nil {
		return nil, nil, 0, err
	}
	defer c.Close()
	var ls Stream
	if lenient != 0 {
		ls = Lenient(s, lenient)
		s = ls
	}
	if n > 0 {
		s = Limit(s, n)
	}
	if arena, err = Materialize(s); err != nil {
		return nil, nil, 0, err
	}
	skipped, _ = Skips(ls)
	return arena, nopCloser{}, skipped, nil
}
