package backend_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"sync"
	"testing"
	"time"

	"mlcache/internal/store"
	"mlcache/internal/store/backend"
	"mlcache/internal/store/backend/fakes3"
)

// newFSBackend opens an FS backend over a fresh directory.
func newFSBackend(t *testing.T) *backend.FS {
	t.Helper()
	fs, err := store.OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return backend.NewFS(fs)
}

// putBlob commits data into b and returns its digest.
func putBlob(t *testing.T, b backend.Backend, data []byte) store.Digest {
	t.Helper()
	d := store.DigestBytes(data)
	if _, err := b.Put(context.Background(), d, bytes.NewReader(data), int64(len(data))); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGCRootsGraceAndDryRun(t *testing.T) {
	fs := newFSBackend(t)
	ctx := context.Background()

	rooted := putBlob(t, fs, testBlob(1000, 30))
	garbage := putBlob(t, fs, testBlob(2000, 31))
	fresh := putBlob(t, fs, testBlob(3000, 32))

	// Age everything past the grace window, then re-commit "fresh" by
	// pretending the clock is now: we anchor Now far in the future for
	// the old ones and within grace for fresh via file mtimes.
	old := time.Now().Add(-2 * time.Hour)
	for _, d := range []store.Digest{rooted, garbage} {
		path, err := fs.Resolve(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, old, old); err != nil {
			t.Fatal(err)
		}
	}

	opts := backend.GCOptions{
		Roots:  map[store.Digest]bool{rooted: true},
		Pins:   fs,
		Grace:  time.Hour,
		DryRun: true,
	}
	report, err := backend.GC(ctx, fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if report.Scanned != 3 || report.KeptRoots != 1 || report.KeptGrace != 1 {
		t.Fatalf("dry-run report %+v", report)
	}
	if report.Reclaimed != 1 || len(report.Candidates) != 1 || report.Candidates[0] != garbage {
		t.Fatalf("dry-run candidates %+v, want exactly %s", report.Candidates, garbage)
	}
	if report.ReclaimedBytes != 2000 {
		t.Fatalf("reclaimed bytes %d, want 2000", report.ReclaimedBytes)
	}
	// Dry run deleted nothing.
	for _, d := range []store.Digest{rooted, garbage, fresh} {
		if _, err := fs.Resolve(d); err != nil {
			t.Fatalf("dry run deleted %s: %v", d, err)
		}
	}

	// Apply: only the unrooted, aged, unpinned object goes.
	opts.DryRun = false
	report, err = backend.GC(ctx, fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if report.Reclaimed != 1 {
		t.Fatalf("apply report %+v", report)
	}
	if _, err := fs.Resolve(garbage); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("garbage survived apply")
	}
	for _, d := range []store.Digest{rooted, fresh} {
		if _, err := fs.Resolve(d); err != nil {
			t.Fatalf("GC deleted live object %s: %v", d, err)
		}
	}
}

func TestGCPinnedObjectSurvives(t *testing.T) {
	fs := newFSBackend(t)
	ctx := context.Background()
	pinned := putBlob(t, fs, testBlob(500, 33))
	path, _ := fs.Resolve(pinned)
	old := time.Now().Add(-3 * time.Hour)
	os.Chtimes(path, old, old)

	fs.Pin(pinned)
	report, err := backend.GC(ctx, fs, backend.GCOptions{Pins: fs, Grace: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if report.KeptPinned != 1 || report.Reclaimed != 0 {
		t.Fatalf("report %+v, want the pinned object kept", report)
	}
	if _, err := fs.Resolve(pinned); err != nil {
		t.Fatal("GC deleted a pinned object")
	}

	// Unpinned, it becomes garbage on the next cycle.
	fs.Unpin(pinned)
	report, err = backend.GC(ctx, fs, backend.GCOptions{Pins: fs, Grace: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if report.Reclaimed != 1 {
		t.Fatalf("report %+v, want the unpinned object reclaimed", report)
	}
}

func TestGCTieredReclaimsBothTiers(t *testing.T) {
	tiered, fake := newTiered(t)
	ctx := context.Background()
	keep := putBlob(t, tiered, testBlob(100, 34))
	garbage := putBlob(t, tiered, testBlob(200, 35))
	// Age local copies; remote ModTimes come from the fake's synthetic
	// clock, which starts in the past already.
	old := time.Now().Add(-2 * time.Hour)
	for _, d := range []store.Digest{keep, garbage} {
		if path, err := tiered.Local.Resolve(d); err == nil {
			os.Chtimes(path, old, old)
		}
	}
	report, err := backend.GC(ctx, tiered, backend.GCOptions{
		Roots: map[store.Digest]bool{keep: true},
		Pins:  tiered,
		Grace: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Reclaimed != 1 {
		t.Fatalf("report %+v", report)
	}
	if _, err := tiered.Local.Resolve(garbage); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("local tier kept the garbage")
	}
	if _, ok := fakeHasDigest(fake, garbage); ok {
		t.Fatal("remote tier kept the garbage")
	}
	// The rooted object survives in both tiers.
	if _, err := tiered.Local.Resolve(keep); err != nil {
		t.Fatal("GC deleted the rooted object locally")
	}
	if _, ok := fakeHasDigest(fake, keep); !ok {
		t.Fatal("GC deleted the rooted object remotely")
	}
}

// TestGCConcurrentWithFetches is the acceptance test: collection cycles
// running concurrently with fetches never delete a reachable (rooted)
// or pinned object. Fetched bytes must verify after every cycle.
func TestGCConcurrentWithFetches(t *testing.T) {
	dir := t.TempDir()
	tiered, fake := newTieredAt(t, dir)
	ctx := context.Background()

	// Live set: rooted objects workers fetch throughout. Garbage: aged
	// unrooted objects GC is entitled to take.
	const liveN = 6
	roots := map[store.Digest]bool{}
	liveData := map[store.Digest][]byte{}
	var live []store.Digest
	for i := 0; i < liveN; i++ {
		data := testBlob(32<<10, byte(40+i))
		d := seedObject(fake, data)
		roots[d] = true
		liveData[d] = data
		live = append(live, d)
	}
	for i := 0; i < 4; i++ {
		putBlob(t, tiered, testBlob(1000+i, byte(60+i)))
	}
	// Age every local object so the grace window protects nothing local;
	// safety for live objects must come from roots and pins alone.
	ageLocal := func() {
		old := time.Now().Add(-24 * time.Hour)
		ents, _ := os.ReadDir(dir)
		for _, e := range ents {
			p := dir + "/" + e.Name()
			os.Chtimes(p, old, old)
		}
	}
	ageLocal()
	fake.SetFaults(fakes3.Faults{SlowReadBPS: 4 << 20}) // widen fill windows

	stop := make(chan struct{})
	var wg sync.WaitGroup
	fetchErr := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				d := live[(w+i)%len(live)]
				tiered.Pin(d)
				path, err := tiered.Resolve(d)
				if err == nil {
					var got []byte
					got, err = os.ReadFile(path)
					if err == nil && !bytes.Equal(got, liveData[d]) {
						err = errors.New("fetched bytes corrupt: " + d.String())
					}
				}
				tiered.Unpin(d)
				if err != nil {
					select {
					case fetchErr <- err:
					default:
					}
					return
				}
			}
		}(w)
	}

	// GC storms: repeated cycles with zero effective grace (aged mtimes)
	// while fetches run.
	for cycle := 0; cycle < 8; cycle++ {
		ageLocal()
		if _, err := backend.GC(ctx, tiered, backend.GCOptions{
			Roots: roots,
			Pins:  tiered,
			Grace: time.Minute, // real window; ageLocal defeats it for locals
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-fetchErr:
		t.Fatalf("fetch failed during concurrent GC: %v", err)
	default:
	}

	// Every rooted object is still fetchable and intact afterwards.
	for _, d := range live {
		path, err := tiered.Resolve(d)
		if err != nil {
			t.Fatalf("rooted object %s lost: %v", d, err)
		}
		got, _ := os.ReadFile(path)
		if !bytes.Equal(got, liveData[d]) {
			t.Fatalf("rooted object %s corrupt after GC", d)
		}
	}
}
