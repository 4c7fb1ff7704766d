// Package backend makes the artifact store's storage layer pluggable: a
// Backend moves verified, content-addressed objects (Get/Put/Head/List/
// Delete over digests) so the rest of the system — serve origins, sweep
// workers, the GC — is written once against the interface. Four
// implementations ship: FS (a local FileStore directory), S3 (a minimal
// S3-compatible REST client with SigV4 signing), HTTP (an artifact
// endpoint on a coordinator or mlcserve origin), and Tiered (a local
// persistent cache tier over a remote tier, with read-through verified
// promotion and write-back upload). Every byte that crosses a backend
// boundary re-derives its identity from content: promotion commits
// through FileStore.Put's digest verification, so a torn remote body or
// a lying endpoint costs a retry, never a poisoned object.
package backend

import (
	"context"
	"io"
	"time"

	"mlcache/internal/store"
)

// ObjectInfo describes one stored object.
type ObjectInfo struct {
	Digest  store.Digest
	Size    int64
	ModTime time.Time
}

// Backend moves content-addressed objects. Implementations must wrap
// os.ErrNotExist for missing objects (Get/Head/Delete) so callers have
// one existence check across local directories and remote endpoints.
//
// Get returns the object's bytes as a stream; the caller owns closing
// it. A Backend does NOT promise the stream is verified — transport can
// tear it — so consumers must hash what they read before trusting it
// (Tiered promotion does, through FileStore.Put).
//
// Put stores r as object d. size is the byte count when known, or < 0;
// implementations that need a length (S3) spool to a temp file first.
// Put verifies where it can do so cheaply (FS hashes inline; S3 sends
// the digest as the signed content hash) and returns bytes consumed.
//
// List enumerates objects in unspecified order, stopping early if fn
// returns an error (which List then returns).
type Backend interface {
	Get(ctx context.Context, d store.Digest) (io.ReadCloser, error)
	Put(ctx context.Context, d store.Digest, r io.Reader, size int64) (int64, error)
	Head(ctx context.Context, d store.Digest) (ObjectInfo, error)
	List(ctx context.Context, fn func(ObjectInfo) error) error
	Delete(ctx context.Context, d store.Digest) error
}

// Store is the capability a serve origin needs: a Backend that can also
// materialize objects as local file paths (store.Resolver), because the
// simulator mmaps artifacts rather than streaming them. FS resolves
// trivially; Tiered resolves by promoting into its local tier. A bare
// remote backend deliberately does not implement Store — compile-time
// proof that serve never reads an unverified remote stream directly.
type Store interface {
	Backend
	store.Resolver
}

// Pins tracks in-use objects a garbage collector must not reclaim.
// Implemented by FS and Tiered via a shared refcount set.
type Pins interface {
	// Pin marks d in use; Unpin releases one reference.
	Pin(d store.Digest)
	Unpin(d store.Digest)
	// Pinned snapshots the digests with a nonzero refcount.
	Pinned() map[store.Digest]bool
}

// Sink adapts a Backend to store.BlobSink, the interface the HTTP
// upload handler publishes through.
type Sink struct {
	B Backend
}

// Put implements store.BlobSink.
func (s Sink) Put(r io.Reader, d store.Digest) (int64, error) {
	return s.B.Put(context.Background(), d, r, -1)
}

// pinSet is the shared refcounted pin tracker.
type pinSet struct {
	pins map[store.Digest]int
}

func (p *pinSet) pin(d store.Digest) {
	if p.pins == nil {
		p.pins = map[store.Digest]int{}
	}
	p.pins[d]++
}

func (p *pinSet) unpin(d store.Digest) {
	if p.pins[d] > 1 {
		p.pins[d]--
	} else {
		delete(p.pins, d)
	}
}

func (p *pinSet) snapshot() map[store.Digest]bool {
	out := make(map[store.Digest]bool, len(p.pins))
	for d := range p.pins {
		out[d] = true
	}
	return out
}
