package backend

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mlcache/internal/store"
)

// Tiered composes a local persistent cache tier (a FileStore directory
// that survives restarts) over a remote tier (typically S3). Reads are
// read-through with verified promotion: a local miss streams the object
// from the remote through FileStore.Put's hash-before-commit — the
// existing digest-verification trust boundary — so a torn or corrupted
// remote body costs a retry, never a committed lie. Writes are
// write-back with a durability acknowledgement: Put commits locally,
// then uploads to the remote, and only returns success once the remote
// confirmed — a caller that saw Put succeed may lose the local disk
// without losing the object. Concurrent fills of one digest coalesce
// into a single download. With a Budget the local tier is a bounded
// cache: each promotion evicts least-recently-used objects that nobody
// has pinned until the tier fits.
type Tiered struct {
	Local  *store.FileStore
	Remote Backend
	// FillRetries bounds promotion attempts per digest (default 4).
	FillRetries int
	// Budget bounds the local tier's committed bytes; <= 0 means
	// unbounded.
	Budget int64
	// Logf receives tier events; nil means silent.
	Logf func(format string, args ...any)

	mu      sync.Mutex
	flights map[store.Digest]*fill
	pins    pinSet
	// used is the LRU clock: the tick at which this process last
	// resolved or promoted each digest.
	used map[store.Digest]int64
	tick int64

	localHits   atomic.Int64
	localMisses atomic.Int64
	promotions  atomic.Int64
	promotedB   atomic.Int64
	remotePuts  atomic.Int64
	uploadedB   atomic.Int64
	fillRetries atomic.Int64
	evictions   atomic.Int64
}

// fill is one in-progress promotion; latecomers wait on done.
type fill struct {
	done chan struct{}
	path string
	err  error
}

var _ Store = (*Tiered)(nil)
var _ Pins = (*Tiered)(nil)

// TierStats is a snapshot of tier traffic, exported as Prometheus
// metrics by serve.
type TierStats struct {
	// LocalHits/LocalMisses count digest resolutions served by the local
	// tier vs needing a remote promotion.
	LocalHits, LocalMisses int64
	// Promotions counts verified remote→local fills; PromotedBytes their
	// total size (remote bytes read, minus torn attempts).
	Promotions, PromotedBytes int64
	// RemotePuts counts write-back uploads; UploadedBytes their size.
	RemotePuts, UploadedBytes int64
	// FillRetries counts promotion attempts discarded by verification.
	FillRetries int64
	// Evictions counts local objects deleted to fit Budget.
	Evictions int64
}

// NewTiered composes local over remote.
func NewTiered(local *store.FileStore, remote Backend) *Tiered {
	return &Tiered{Local: local, Remote: remote}
}

func (t *Tiered) logf(format string, args ...any) {
	if t.Logf != nil {
		t.Logf(format, args...)
	}
}

func (t *Tiered) fillRetriesMax() int {
	if t.FillRetries > 0 {
		return t.FillRetries
	}
	return 4
}

// Resolve implements store.Resolver: the local path, promoting from the
// remote tier on a miss. This is what lets serve mmap artifacts while
// the durable copy lives in a bucket.
func (t *Tiered) Resolve(d store.Digest) (string, error) {
	return t.ResolveContext(context.Background(), d)
}

// ResolveContext is Resolve with a context bounding the promotion. A
// caller that must keep the path past a concurrent promotion's eviction
// pins d first.
func (t *Tiered) ResolveContext(ctx context.Context, d store.Digest) (string, error) {
	if path, err := t.Local.Resolve(d); err == nil {
		t.localHits.Add(1)
		t.touch(d)
		return path, nil
	}
	t.localMisses.Add(1)
	return t.promote(ctx, d)
}

// promote fills d into the local tier from the remote, singleflighted.
func (t *Tiered) promote(ctx context.Context, d store.Digest) (string, error) {
	for {
		t.mu.Lock()
		if fl, ok := t.flights[d]; ok {
			t.mu.Unlock()
			select {
			case <-fl.done:
			case <-ctx.Done():
				return "", ctx.Err()
			}
			if fl.err != nil {
				// The flight's owner failed; this waiter retries as owner.
				continue
			}
			return fl.path, nil
		}
		fl := &fill{done: make(chan struct{})}
		if t.flights == nil {
			t.flights = map[store.Digest]*fill{}
		}
		t.flights[d] = fl
		// Pin for the fill window so a concurrent GC cannot reclaim the
		// object between our commit and our caller taking its own pin.
		t.pins.pin(d)
		t.mu.Unlock()

		fl.path, fl.err = t.fillOnce(ctx, d)
		defer t.Unpin(d)
		t.mu.Lock()
		delete(t.flights, d)
		t.mu.Unlock()
		close(fl.done)
		return fl.path, fl.err
	}
}

// fillOnce streams the remote object through the local store's verified
// commit, retrying torn bodies.
func (t *Tiered) fillOnce(ctx context.Context, d store.Digest) (string, error) {
	// A racing Put or promotion may have landed while we queued.
	if path, err := t.Local.Resolve(d); err == nil {
		return path, nil
	}
	var lastErr error
	for attempt := 0; attempt <= t.fillRetriesMax(); attempt++ {
		rc, err := t.Remote.Get(ctx, d)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return "", err
			}
			lastErr = err
			continue
		}
		n, err := t.Local.Put(rc, d)
		rc.Close()
		if err == nil {
			t.promotions.Add(1)
			t.promotedB.Add(n)
			t.logf("backend: tiered: promoted %s (%d bytes)", d, n)
			t.touch(d)
			t.evict()
			return t.Local.Resolve(d)
		}
		// Torn body or a lying endpoint: FileStore.Put discarded the staged
		// bytes; go around for a fresh stream.
		t.fillRetries.Add(1)
		t.logf("backend: tiered: promotion of %s attempt %d: %v", d, attempt+1, err)
		lastErr = err
		select {
		case <-ctx.Done():
			return "", ctx.Err()
		default:
		}
	}
	return "", fmt.Errorf("backend: tiered: promoting %s failed after %d attempts: %w",
		d, t.fillRetriesMax()+1, lastErr)
}

// Get implements Backend: the verified local copy, promoted on demand.
func (t *Tiered) Get(ctx context.Context, d store.Digest) (io.ReadCloser, error) {
	path, err := t.ResolveContext(ctx, d)
	if err != nil {
		return nil, err
	}
	return os.Open(path)
}

// Put implements Backend: write-back with durability acknowledgement.
// The local commit verifies the bytes; the remote upload then reads the
// committed file (so retries re-read stable content), and Put fails —
// with the local copy retained as a warm object — if the remote never
// acknowledges.
func (t *Tiered) Put(ctx context.Context, d store.Digest, r io.Reader, _ int64) (int64, error) {
	n, err := t.Local.Put(r, d)
	if err != nil {
		return n, err
	}
	if err := t.uploadLocked(ctx, d); err != nil {
		return n, fmt.Errorf("backend: tiered: %s committed locally but not durable: %w", d, err)
	}
	return n, nil
}

// uploadLocked pushes the committed local object to the remote tier.
func (t *Tiered) uploadLocked(ctx context.Context, d store.Digest) error {
	path, err := t.Local.Resolve(d)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	n, err := t.Remote.Put(ctx, d, f, st.Size())
	if err != nil {
		return err
	}
	t.remotePuts.Add(1)
	t.uploadedB.Add(n)
	t.logf("backend: tiered: uploaded %s (%d bytes)", d, n)
	return nil
}

// Head implements Backend: local tier first, remote on a miss.
func (t *Tiered) Head(ctx context.Context, d store.Digest) (ObjectInfo, error) {
	if size, mod, err := t.Local.Stat(d); err == nil {
		return ObjectInfo{Digest: d, Size: size, ModTime: mod}, nil
	}
	return t.Remote.Head(ctx, d)
}

// List implements Backend: the union of both tiers (a write-back that
// died before upload exists only locally; a not-yet-promoted object
// only remotely), deduplicated by digest.
func (t *Tiered) List(ctx context.Context, fn func(ObjectInfo) error) error {
	seen := map[store.Digest]bool{}
	local := NewFS(t.Local)
	if err := local.List(ctx, func(info ObjectInfo) error {
		seen[info.Digest] = true
		return fn(info)
	}); err != nil {
		return err
	}
	return t.Remote.List(ctx, func(info ObjectInfo) error {
		if seen[info.Digest] {
			return nil
		}
		return fn(info)
	})
}

// Delete implements Backend, reclaiming the object from both tiers. The
// object counts as reclaimed if either tier held it.
func (t *Tiered) Delete(ctx context.Context, d store.Digest) error {
	localErr := t.Local.Delete(d)
	if localErr != nil && !errors.Is(localErr, os.ErrNotExist) {
		return localErr
	}
	remoteErr := t.Remote.Delete(ctx, d)
	if remoteErr != nil && !errors.Is(remoteErr, os.ErrNotExist) {
		return remoteErr
	}
	if localErr != nil && remoteErr != nil {
		return fmt.Errorf("backend: tiered: delete %s: %w", d, os.ErrNotExist)
	}
	return nil
}

// touch marks d most recently used.
func (t *Tiered) touch(d store.Digest) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.used == nil {
		t.used = map[store.Digest]int64{}
	}
	t.tick++
	t.used[d] = t.tick
}

// evict deletes local objects until the tier fits Budget: first those
// this process has not resolved (warm objects from an earlier run),
// oldest mtime first, then the least recently used. Pinned digests are
// skipped; the fill window pins the digest being promoted.
func (t *Tiered) evict() {
	if t.Budget <= 0 {
		return
	}
	digests, err := t.Local.List()
	if err != nil {
		t.logf("backend: tiered: evict: %v", err)
		return
	}
	type object struct {
		d    store.Digest
		size int64
		mod  time.Time
		used int64
	}
	var objs []object
	var total int64
	for _, d := range digests {
		size, mod, err := t.Local.Stat(d)
		if err != nil {
			continue // deleted under us
		}
		objs = append(objs, object{d: d, size: size, mod: mod})
		total += size
	}
	if total <= t.Budget {
		return
	}
	t.mu.Lock()
	for i := range objs {
		objs[i].used = t.used[objs[i].d]
	}
	t.mu.Unlock()
	sort.Slice(objs, func(i, j int) bool {
		if objs[i].used != objs[j].used {
			return objs[i].used < objs[j].used
		}
		return objs[i].mod.Before(objs[j].mod)
	})
	for _, o := range objs {
		if total <= t.Budget {
			return
		}
		pinned, err := t.evictOne(o.d)
		switch {
		case pinned:
		case errors.Is(err, os.ErrNotExist):
			total -= o.size // a concurrent eviction got there first
		case err != nil:
			t.logf("backend: tiered: evict %s: %v", o.d, err)
		default:
			total -= o.size
			t.evictions.Add(1)
			t.logf("backend: tiered: evicted %s (%d bytes)", o.d, o.size)
		}
	}
}

// evictOne deletes d from the local tier unless it is pinned. The pin
// check and the delete hold t.mu, the lock Pin takes, so d is either
// pinned before eviction looks at it or gone before its pinner resolves
// it.
func (t *Tiered) evictOne(d store.Digest) (pinned bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pins.pins[d] > 0 {
		return true, nil
	}
	err = t.Local.Delete(d)
	if err == nil || errors.Is(err, os.ErrNotExist) {
		delete(t.used, d)
	}
	return false, err
}

// Pin implements Pins.
func (t *Tiered) Pin(d store.Digest) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pins.pin(d)
}

// Unpin implements Pins.
func (t *Tiered) Unpin(d store.Digest) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pins.unpin(d)
}

// Pinned implements Pins.
func (t *Tiered) Pinned() map[store.Digest]bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pins.snapshot()
}

// Stats snapshots tier traffic.
func (t *Tiered) Stats() TierStats {
	return TierStats{
		LocalHits:     t.localHits.Load(),
		LocalMisses:   t.localMisses.Load(),
		Promotions:    t.promotions.Load(),
		PromotedBytes: t.promotedB.Load(),
		RemotePuts:    t.remotePuts.Load(),
		UploadedBytes: t.uploadedB.Load(),
		FillRetries:   t.fillRetries.Load(),
		Evictions:     t.evictions.Load(),
	}
}
