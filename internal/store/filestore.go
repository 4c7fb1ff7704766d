package store

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// ErrDigestMismatch marks bytes that do not hash to the digest they were
// named by — a torn upload, a corrupted transfer, or a lying peer. The
// offending bytes are always discarded before this error is returned;
// neither the file store nor the worker cache ever commits them.
var ErrDigestMismatch = fmt.Errorf("store: content does not match its digest")

// Resolver maps a digest to a local file path holding exactly those
// bytes. os.ErrNotExist (wrapped or bare) means the object is unknown.
type Resolver interface {
	Resolve(d Digest) (string, error)
}

// Static is a fixed digest→path table: how a server hosting a leased grid
// (serve.Server.Lease) serves the grid's trace artifact from the trace's
// own path, without copying it into a store directory.
type Static map[Digest]string

// Resolve implements Resolver.
func (s Static) Resolve(d Digest) (string, error) {
	if p, ok := s[d]; ok {
		return p, nil
	}
	return "", fmt.Errorf("store: %s: %w", d, os.ErrNotExist)
}

// FileStore is a directory of content-addressed artifacts: each object
// lives at <dir>/<hex>.mlca, committed only after its bytes verified
// against the name. Writes stage through a temp file in the same
// directory and rename into place, so a reader never observes a partial
// object and a crash leaves at worst an orphaned *.tmp (swept on open).
type FileStore struct {
	dir string

	// Put serializes per digest, not globally: committing two unrelated
	// objects proceeds in parallel, while two racing uploads of the same
	// object stage once. locks holds one entry per digest with a Put in
	// flight; entries are refcounted and removed when the last holder
	// releases, so the map stays empty at rest.
	mu    sync.Mutex // guards locks
	locks map[Digest]*digestLock
}

// digestLock is the per-digest Put serializer.
type digestLock struct {
	mu   sync.Mutex
	refs int
}

// lockDigest acquires the Put lock for d and returns its release func.
func (s *FileStore) lockDigest(d Digest) func() {
	s.mu.Lock()
	l := s.locks[d]
	if l == nil {
		l = &digestLock{}
		if s.locks == nil {
			s.locks = map[Digest]*digestLock{}
		}
		s.locks[d] = l
	}
	l.refs++
	s.mu.Unlock()
	l.mu.Lock()
	return func() {
		l.mu.Unlock()
		s.mu.Lock()
		l.refs--
		if l.refs == 0 {
			delete(s.locks, d)
		}
		s.mu.Unlock()
	}
}

// objectSuffix keeps stored objects openable by the existing artifact
// suffix routing (trace.IsArtifactPath).
const objectSuffix = ".mlca"

// OpenFileStore opens (creating if needed) a store directory and sweeps
// temp files left by a crashed writer.
func OpenFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	return &FileStore{dir: dir}, nil
}

func (s *FileStore) objectPath(d Digest) string {
	return filepath.Join(s.dir, d.Hex()+objectSuffix)
}

// Resolve implements Resolver: the object's path if present.
func (s *FileStore) Resolve(d Digest) (string, error) {
	p := s.objectPath(d)
	if _, err := os.Stat(p); err != nil {
		return "", fmt.Errorf("store: %s: %w", d, err)
	}
	return p, nil
}

// Put streams r into the store as object d, verifying the hash before the
// atomic commit. A mismatch discards the staged bytes and returns
// ErrDigestMismatch. Putting an object that already exists drains r but
// re-verifies nothing — content addressing makes the existing bytes
// authoritative. Returns the byte count consumed from r.
func (s *FileStore) Put(r io.Reader, d Digest) (int64, error) {
	if _, err := os.Stat(s.objectPath(d)); err == nil {
		return io.Copy(io.Discard, r)
	}
	defer s.lockDigest(d)()
	if _, err := os.Stat(s.objectPath(d)); err == nil {
		// A racing Put of the same digest committed while we waited.
		return io.Copy(io.Discard, r)
	}
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	h := sha256.New()
	n, err := io.Copy(io.MultiWriter(tmp, h), r)
	if err != nil {
		tmp.Close()
		return n, fmt.Errorf("store: receiving %s: %w", d, err)
	}
	var got Digest
	h.Sum(got.sum[:0])
	if got != d {
		tmp.Close()
		return n, fmt.Errorf("store: upload named %s hashes to %s: %w", d, got, ErrDigestMismatch)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return n, fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return n, fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.objectPath(d)); err != nil {
		return n, fmt.Errorf("store: %w", err)
	}
	syncDir(s.dir)
	return n, nil
}

// Add copies a local file into the store, returning the digest it was
// committed under.
func (s *FileStore) Add(path string) (Digest, error) {
	d, _, err := DigestFile(path)
	if err != nil {
		return Digest{}, err
	}
	f, err := os.Open(path)
	if err != nil {
		return Digest{}, err
	}
	defer f.Close()
	if _, err := s.Put(f, d); err != nil {
		return Digest{}, err
	}
	return d, nil
}

// Delete removes object d. Deleting an absent object is an error
// (wrapped os.ErrNotExist) so garbage collectors can tell "reclaimed"
// from "already gone".
func (s *FileStore) Delete(d Digest) error {
	if err := os.Remove(s.objectPath(d)); err != nil {
		return fmt.Errorf("store: delete %s: %w", d, err)
	}
	syncDir(s.dir)
	return nil
}

// Stat reports a committed object's size and modification time.
func (s *FileStore) Stat(d Digest) (size int64, modTime time.Time, err error) {
	st, err := os.Stat(s.objectPath(d))
	if err != nil {
		return 0, time.Time{}, fmt.Errorf("store: %s: %w", d, err)
	}
	return st.Size(), st.ModTime(), nil
}

// List enumerates the digests of every committed object.
func (s *FileStore) List() ([]Digest, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var out []Digest
	for _, e := range ents {
		name, ok := strings.CutSuffix(e.Name(), objectSuffix)
		if !ok {
			continue
		}
		if d, err := parseHex(name); err == nil {
			out = append(out, d)
		}
	}
	return out, nil
}

// syncDir fsyncs a directory so a just-renamed object survives power
// loss. Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		_ = f.Sync()
		f.Close()
	}
}
