// Package store is the content-addressed trace-artifact store: artifacts
// are identified by a strong digest of their bytes rather than a
// filesystem path, served over HTTP by whichever process has them (the
// sweep coordinator, or mlcserve acting as an origin), and fetched on
// demand by workers into a size-bounded local cache that verifies the
// digest before committing. Identity-by-content is what lets a trace be
// generated once and fanned out to machines that share no disk: a torn,
// resumed, throttled, or retried transfer either reproduces exactly the
// published bytes or is rejected, so the distributed sweep's merged table
// stays byte-identical to a single-process run no matter how the transfer
// misbehaved.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
)

// DigestPrefix names the only digest algorithm the store speaks. The
// prefix is part of the wire format (URLs, JobSpec fields, file names are
// derived from it) so a future algorithm can coexist without ambiguity.
const DigestPrefix = "sha256:"

// hexLen is the length of a lowercase-hex SHA-256.
const hexLen = 2 * sha256.Size

// Digest is the content identity of an artifact: the SHA-256 of its full
// file bytes (header and records). The artifact header's CRC-32C rides
// along in job specs as a consistency check, but only the SHA-256 names
// an object in the store.
type Digest struct {
	sum [sha256.Size]byte
}

// String renders the canonical wire form, "sha256:" + 64 lowercase hex.
func (d Digest) String() string { return DigestPrefix + d.Hex() }

// Hex returns the bare lowercase-hex sum — the store's on-disk object
// name, without the algorithm prefix (":" is unkind to filesystems).
func (d Digest) Hex() string { return hex.EncodeToString(d.sum[:]) }

// IsZero reports whether d is the zero Digest (no artifact).
func (d Digest) IsZero() bool { return d == Digest{} }

// ParseDigest parses the canonical wire form. It is strict — exact
// prefix, exactly 64 hex digits, lowercase only — because digests cross
// trust boundaries (URLs, job specs, uploaded file names) and a lax
// parser would let two spellings name one object.
func ParseDigest(s string) (Digest, error) {
	if len(s) != len(DigestPrefix)+hexLen {
		return Digest{}, fmt.Errorf("store: digest %q: want %q + %d hex digits", s, DigestPrefix, hexLen)
	}
	if s[:len(DigestPrefix)] != DigestPrefix {
		return Digest{}, fmt.Errorf("store: digest %q: unknown algorithm (want %q)", s, DigestPrefix)
	}
	var d Digest
	raw := s[len(DigestPrefix):]
	for _, c := range []byte(raw) {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return Digest{}, fmt.Errorf("store: digest %q: not lowercase hex", s)
		}
	}
	if _, err := hex.Decode(d.sum[:], []byte(raw)); err != nil {
		return Digest{}, fmt.Errorf("store: digest %q: %v", s, err)
	}
	return d, nil
}

// parseHex parses a bare 64-hex object name (the on-disk form).
func parseHex(s string) (Digest, error) {
	return ParseDigest(DigestPrefix + s)
}

// DigestBytes digests an in-memory artifact.
func DigestBytes(b []byte) Digest {
	return Digest{sum: sha256.Sum256(b)}
}

// DigestReader digests a stream, returning the byte count consumed.
func DigestReader(r io.Reader) (Digest, int64, error) {
	h := sha256.New()
	n, err := io.Copy(h, r)
	if err != nil {
		return Digest{}, 0, err
	}
	var d Digest
	h.Sum(d.sum[:0])
	return d, n, nil
}

// DigestFile digests a file's full contents and reports its size — the
// identity under which a coordinator publishes its trace artifact.
func DigestFile(path string) (Digest, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return Digest{}, 0, err
	}
	defer f.Close()
	d, n, err := DigestReader(f)
	if err != nil {
		return Digest{}, 0, fmt.Errorf("store: digesting %s: %w", path, err)
	}
	return d, n, nil
}
