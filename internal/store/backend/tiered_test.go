package backend_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"mlcache/internal/cache"
	"mlcache/internal/cpu"
	"mlcache/internal/mainmem"
	"mlcache/internal/memsys"
	"mlcache/internal/store"
	"mlcache/internal/store/backend"
	"mlcache/internal/store/backend/fakes3"
	"mlcache/internal/sweep"
	"mlcache/internal/trace"
)

// newTiered composes an empty local tier over a fake-S3 remote.
func newTiered(t *testing.T) (*backend.Tiered, *fakes3.Server) {
	t.Helper()
	s3, fake := newFakeS3(t)
	local, err := store.OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return backend.NewTiered(local, s3), fake
}

func TestTieredReadThroughPromotion(t *testing.T) {
	tiered, fake := newTiered(t)
	data := testBlob(32<<10, 20)
	d := seedObject(fake, data)

	// Cold: the resolve promotes from the remote into the local tier.
	path, err := tiered.Resolve(d)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if !bytes.Equal(got, data) {
		t.Fatal("promoted bytes differ from remote")
	}
	getsAfterFill := fake.Stats().Gets

	// Warm: local tier serves; the remote stays quiet.
	if _, err := tiered.Resolve(d); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, tiered, d); !bytes.Equal(got, data) {
		t.Fatal("Get after promotion differs")
	}
	if fake.Stats().Gets != getsAfterFill {
		t.Fatalf("warm resolves hit the remote (%d GETs, had %d)", fake.Stats().Gets, getsAfterFill)
	}
	st := tiered.Stats()
	if st.Promotions != 1 || st.LocalMisses != 1 || st.LocalHits < 2 {
		t.Fatalf("tier stats %+v", st)
	}
	if st.PromotedBytes != int64(len(data)) {
		t.Fatalf("promoted bytes %d, want %d", st.PromotedBytes, len(data))
	}
}

func TestTieredPromotionSurvivesTornBodies(t *testing.T) {
	tiered, fake := newTiered(t)
	data := testBlob(64<<10, 21)
	d := seedObject(fake, data)
	// Two torn bodies, then a 500, before a clean read: the verified
	// promotion must discard each bad stream and retry.
	fake.SetFaults(fakes3.Faults{TornGets: 2, FailGets: 1})
	path, err := tiered.Resolve(d)
	if err != nil {
		t.Fatalf("promotion under faults: %v", err)
	}
	got, _ := os.ReadFile(path)
	if !bytes.Equal(got, data) {
		t.Fatal("promoted bytes differ")
	}
	st := tiered.Stats()
	if st.Promotions != 1 || st.FillRetries < 2 {
		t.Fatalf("tier stats %+v, want 1 promotion after >=2 discarded attempts", st)
	}
}

func TestTieredPromotionMissingObject(t *testing.T) {
	tiered, _ := newTiered(t)
	d := store.DigestBytes([]byte("never uploaded"))
	if _, err := tiered.Resolve(d); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("resolve of absent object: %v, want ErrNotExist", err)
	}
}

func TestTieredWriteBackDurability(t *testing.T) {
	tiered, fake := newTiered(t)
	ctx := context.Background()
	data := testBlob(16<<10, 22)
	d := store.DigestBytes(data)

	if _, err := tiered.Put(ctx, d, bytes.NewReader(data), int64(len(data))); err != nil {
		t.Fatal(err)
	}
	// Durability acknowledgement means the object is already remote.
	if _, ok := fakeHasDigest(fake, d); !ok {
		t.Fatal("Put returned before the remote held the object")
	}
	if st := tiered.Stats(); st.RemotePuts != 1 || st.UploadedBytes != int64(len(data)) {
		t.Fatalf("tier stats %+v", st)
	}

	// A remote outage longer than the retry budget fails the Put even
	// though the local commit succeeded — and says so.
	data2 := testBlob(8<<10, 23)
	d2 := store.DigestBytes(data2)
	fake.SetFaults(fakes3.Faults{FailPuts: 100})
	_, err := tiered.Put(ctx, d2, bytes.NewReader(data2), int64(len(data2)))
	if err == nil {
		t.Fatal("Put claimed durability during a remote outage")
	}
	if want := "not durable"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("error %q does not say %q", err, want)
	}
	// The local copy is retained as a warm object (resolvable), so the
	// caller can re-publish without re-uploading the bytes from source.
	if _, err := tiered.Local.Resolve(d2); err != nil {
		t.Fatalf("failed write-back lost the local copy: %v", err)
	}
}

// fakeHasDigest reports whether the fake bucket holds d's object key.
func fakeHasDigest(fake *fakes3.Server, d store.Digest) (string, bool) {
	key := backend.ObjectKey("mlca/", d)
	for _, k := range fake.Keys() {
		if k == key {
			return k, true
		}
	}
	return key, false
}

func TestTieredCoalescesConcurrentFills(t *testing.T) {
	tiered, fake := newTiered(t)
	data := testBlob(256<<10, 24)
	d := seedObject(fake, data)
	// Throttle the remote so the fill window is wide enough that all
	// workers genuinely overlap.
	fake.SetFaults(fakes3.Faults{SlowReadBPS: 1 << 20})

	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = tiered.Resolve(d)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if gets := fake.Stats().Gets; gets != 1 {
		t.Fatalf("%d workers caused %d remote GETs, want 1 coalesced fill", workers, gets)
	}
}

// TestTieredCoalescesConcurrentHTTPFills runs the worker's configuration
// of TestTieredCoalescesConcurrentFills: concurrent ResolveContext calls
// over a throttled HTTP origin share one GET and one promotion, and all
// get the same path.
func TestTieredCoalescesConcurrentHTTPFills(t *testing.T) {
	path, d := writeArtifact(t, t.TempDir(), 5000, 50)
	remote, gets := httpOrigin(t, store.Static{d: path})
	// Throttle so the flight stays open long enough for real overlap.
	remote.ThrottleBPS = 1 << 20
	local, err := store.OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiered := backend.NewTiered(local, remote)

	const workers = 8
	var wg sync.WaitGroup
	paths := make([]string, workers)
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			paths[i], errs[i] = tiered.ResolveContext(context.Background(), d)
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if paths[i] != paths[0] {
			t.Fatalf("worker %d got %s, want %s", i, paths[i], paths[0])
		}
	}
	if n := gets.Load(); n != 1 {
		t.Fatalf("%d GETs for %d concurrent resolves, want 1", n, workers)
	}
	if st := tiered.Stats(); st.Promotions != 1 {
		t.Fatalf("stats %+v, want 1 promotion", st)
	}
}

func TestTieredDeleteBothTiers(t *testing.T) {
	tiered, fake := newTiered(t)
	ctx := context.Background()
	data := testBlob(4096, 25)
	d := store.DigestBytes(data)
	if _, err := tiered.Put(ctx, d, bytes.NewReader(data), int64(len(data))); err != nil {
		t.Fatal(err)
	}
	if err := tiered.Delete(ctx, d); err != nil {
		t.Fatal(err)
	}
	if _, err := tiered.Local.Resolve(d); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("local copy survived delete")
	}
	if _, ok := fakeHasDigest(fake, d); ok {
		t.Fatal("remote copy survived delete")
	}
	if err := tiered.Delete(ctx, d); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("double delete: %v, want ErrNotExist", err)
	}
}

func TestTieredListUnion(t *testing.T) {
	tiered, fake := newTiered(t)
	ctx := context.Background()
	// One object in both tiers, one remote-only, one local-only.
	both := testBlob(100, 26)
	dBoth := store.DigestBytes(both)
	if _, err := tiered.Put(ctx, dBoth, bytes.NewReader(both), int64(len(both))); err != nil {
		t.Fatal(err)
	}
	dRemote := seedObject(fake, testBlob(200, 27))
	localOnly := testBlob(300, 28)
	dLocal := store.DigestBytes(localOnly)
	if _, err := tiered.Local.Put(bytes.NewReader(localOnly), dLocal); err != nil {
		t.Fatal(err)
	}

	got := map[store.Digest]int{}
	if err := tiered.List(ctx, func(info backend.ObjectInfo) error {
		got[info.Digest]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, d := range []store.Digest{dBoth, dRemote, dLocal} {
		if got[d] != 1 {
			t.Fatalf("object %s listed %d times, want exactly once (all: %v)", d, got[d], got)
		}
	}
	if len(got) != 3 {
		t.Fatalf("listed %d objects, want 3", len(got))
	}
}

// TestTieredSweepTableByteIdentical is the acceptance test for the
// tiered read path: a sweep whose trace artifact arrives through a
// cold tiered backend over fake S3 must render exactly the same table
// bytes as the same sweep reading the artifact from the local
// filesystem — the backend seam changes where bytes live, never what
// the simulation sees.
func TestTieredSweepTableByteIdentical(t *testing.T) {
	path, d := writeArtifact(t, t.TempDir(), 30000, 42)

	configure := func(pt sweep.Point) memsys.Config {
		l1 := func(name string) memsys.LevelConfig {
			return memsys.LevelConfig{
				Cache: cache.Config{
					Name: name, SizeBytes: 2 * 1024, BlockBytes: 16, Assoc: 1,
					Repl: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
				},
				CycleNS: 10,
			}
		}
		return memsys.Config{
			CPUCycleNS: 10,
			SplitL1:    true,
			L1I:        l1("L1I"),
			L1D:        l1("L1D"),
			Down: []memsys.LevelConfig{{
				Cache: cache.Config{
					Name: "L2", SizeBytes: pt.L2SizeBytes, BlockBytes: 32, Assoc: pt.L2Assoc,
					Repl: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
				},
				CycleNS: pt.L2CycleNS,
			}},
			Memory: mainmem.Base(),
		}
	}
	grid := sweep.Grid{
		SizesBytes: []int64{16 * 1024, 64 * 1024},
		CyclesNS:   []int64{10, 20},
	}

	runTable := func(artifactPath string) []byte {
		art, err := trace.OpenArtifact(artifactPath)
		if err != nil {
			t.Fatal(err)
		}
		defer art.Close()
		r := sweep.Runner{
			Configure:   configure,
			Arena:       art.Arena(),
			CPU:         cpu.Config{CycleNS: 10, WarmupRefs: 5000},
			Parallelism: 2,
		}
		results, err := r.RunContext(context.Background(), grid.Points(), sweep.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var table bytes.Buffer
		if err := sweep.WriteTable(&table, results, 10, false); err != nil {
			t.Fatal(err)
		}
		return table.Bytes()
	}

	// Reference: the artifact read straight from the local filesystem.
	want := runTable(path)

	// Tiered cold path: the only copy starts in the fake bucket; the
	// local tier is empty and fills by verified promotion.
	tiered, fake := newTiered(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fake.PutObject(backend.ObjectKey("mlca/", d), raw)
	// Fault the first read for good measure: equivalence must hold even
	// when the promotion had to retry.
	fake.SetFaults(fakes3.Faults{TornGets: 1})
	promoted, err := tiered.Resolve(d)
	if err != nil {
		t.Fatal(err)
	}
	got := runTable(promoted)

	if !bytes.Equal(got, want) {
		t.Errorf("tables differ:\n--- tiered cold path ---\n%s--- local filesystem ---\n%s",
			got, want)
	}
}

// TestTieredWarmStartAdopts resolves an artifact twice through a cold
// tier over an HTTP origin (one GET), then opens a fresh Tiered over the
// same directory, as a restarted worker does: it adopts the committed
// object without touching the origin.
func TestTieredWarmStartAdopts(t *testing.T) {
	path, d := writeArtifact(t, t.TempDir(), 300, 10)
	remote, gets := httpOrigin(t, store.Static{d: path})
	dir := t.TempDir()
	open := func() *backend.Tiered {
		local, err := store.OpenFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return backend.NewTiered(local, remote)
	}

	tiered := open()
	p1, err := tiered.Resolve(d)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := tiered.Resolve(d)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 || gets.Load() != 1 {
		t.Fatalf("second Resolve missed: %s vs %s, %d GETs", p1, p2, gets.Load())
	}
	want, _ := os.ReadFile(path)
	if got, _ := os.ReadFile(p1); !bytes.Equal(got, want) {
		t.Fatal("cached bytes differ from origin")
	}
	if st := tiered.Stats(); st.Promotions != 1 || st.LocalHits != 1 {
		t.Fatalf("stats %+v, want 1 promotion and 1 hit", st)
	}

	warm := open()
	if _, err := warm.Resolve(d); err != nil {
		t.Fatal(err)
	}
	if gets.Load() != 1 {
		t.Fatalf("warm start refetched: %d GETs", gets.Load())
	}
	if st := warm.Stats(); st.Promotions != 0 || st.LocalHits != 1 {
		t.Fatalf("warm stats %+v, want 0 promotions and 1 hit", st)
	}
}

// TestTieredBudgetEvictsLRUUnpinned fills budgeted tiers past their
// budget: warm objects this process never touched go first (oldest
// mtime first), then the least recently used, and a pinned object
// survives however old it is until it is unpinned.
func TestTieredBudgetEvictsLRUUnpinned(t *testing.T) {
	const size = 4096
	// newBudgeted returns a tier with room for two objects and a function
	// that publishes a distinct object to its remote.
	newBudgeted := func(t *testing.T) (*backend.Tiered, func(seed byte) store.Digest) {
		tiered, fake := newTiered(t)
		tiered.Budget = 2*size + size/2
		return tiered, func(seed byte) store.Digest { return seedObject(fake, testBlob(size, seed)) }
	}
	resolve := func(t *testing.T, tiered *backend.Tiered, ds ...store.Digest) {
		t.Helper()
		for _, d := range ds {
			if _, err := tiered.Resolve(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	resident := func(t *testing.T, tiered *backend.Tiered, step string, want ...store.Digest) {
		t.Helper()
		got, err := tiered.Local.List()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d objects resident, want %d", step, len(got), len(want))
		}
		for _, d := range want {
			if _, err := tiered.Local.Resolve(d); err != nil {
				t.Fatalf("%s: %s was evicted", step, d)
			}
		}
	}
	evictions := func(t *testing.T, tiered *backend.Tiered, want int64) {
		t.Helper()
		if st := tiered.Stats(); st.Evictions != want {
			t.Fatalf("stats %+v, want %d evictions", st, want)
		}
	}

	t.Run("untouched then LRU", func(t *testing.T) {
		tiered, publish := newBudgeted(t)
		// Two warm objects from an "earlier run", committed straight into
		// the local tier, the older one an hour older.
		var warm []store.Digest
		for i, age := range []time.Duration{2 * time.Hour, time.Hour} {
			data := testBlob(size, byte(40+i))
			d := store.DigestBytes(data)
			if _, err := tiered.Local.Put(bytes.NewReader(data), d); err != nil {
				t.Fatal(err)
			}
			p, _ := tiered.Local.Resolve(d)
			mod := time.Now().Add(-age)
			if err := os.Chtimes(p, mod, mod); err != nil {
				t.Fatal(err)
			}
			warm = append(warm, d)
		}
		newer := warm[1]
		a, b, c := publish(50), publish(51), publish(52)

		resolve(t, tiered, a)
		resident(t, tiered, "untouched oldest goes first", newer, a)
		resolve(t, tiered, b)
		resident(t, tiered, "untouched before LRU", a, b)
		resolve(t, tiered, a, c) // a is now more recent than b
		resident(t, tiered, "LRU", a, c)
		evictions(t, tiered, 3)
	})

	t.Run("pins block eviction", func(t *testing.T) {
		tiered, publish := newBudgeted(t)
		a, c, e, f, g := publish(50), publish(52), publish(53), publish(54), publish(55)

		resolve(t, tiered, a, c)
		tiered.Pin(a) // a is least recently used from here on
		resolve(t, tiered, e)
		resident(t, tiered, "pinned LRU survives", a, e)
		resolve(t, tiered, f)
		resident(t, tiered, "pinned LRU survives again", a, f)
		tiered.Unpin(a)
		resolve(t, tiered, g)
		resident(t, tiered, "unpinned LRU evicted", f, g)
		evictions(t, tiered, 3)
	})
}

// TestTieredLyingOriginCommitsNothing points a tier at an origin that
// serves wrong bytes for every request, either different bytes entirely
// or the true bytes with one bit flipped: each attempt fails FileStore's
// verification, the fill gives up with ErrDigestMismatch, and the local
// directory holds neither an object nor a staging file.
func TestTieredLyingOriginCommitsNothing(t *testing.T) {
	truth := testBlob(8192, 12)
	d := store.DigestBytes(truth)
	flipped := bytes.Clone(truth)
	flipped[len(flipped)/2] ^= 0x01
	cases := []struct {
		name string
		body []byte
	}{
		{"wrong bytes", []byte("not the artifact you were promised")},
		{"flipped byte", flipped},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Write(tc.body)
			}))
			defer srv.Close()
			local, err := store.OpenFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			tiered := backend.NewTiered(local, &backend.HTTP{Base: srv.URL, Retries: 1})
			tiered.FillRetries = 2

			if _, err := tiered.Resolve(d); !errors.Is(err, store.ErrDigestMismatch) {
				t.Fatalf("want ErrDigestMismatch, got %v", err)
			}
			ents, _ := os.ReadDir(local.Dir())
			for _, e := range ents {
				t.Errorf("failed fill left %s behind", e.Name())
			}
			if st := tiered.Stats(); st.Promotions != 0 || st.FillRetries != 3 {
				t.Fatalf("stats %+v, want 0 promotions after 3 discarded attempts", st)
			}
		})
	}
}

// TestTieredAbsentObjectIsTerminal resolves a digest the origin never
// published: the 404 ends the fill at once as os.ErrNotExist, with no
// HTTP retry and no second fill attempt, and the local tier stays empty.
func TestTieredAbsentObjectIsTerminal(t *testing.T) {
	remote, gets := httpOrigin(t, store.Static{})
	remote.Retries = 50 // would take minutes if a 404 were retried
	local, err := store.OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiered := backend.NewTiered(local, remote)

	_, err = tiered.Resolve(store.DigestBytes([]byte("absent")))
	var se *backend.StatusError
	if !errors.Is(err, os.ErrNotExist) || !errors.As(err, &se) || se.StatusCode != http.StatusNotFound {
		t.Fatalf("want a terminal 404 wrapping ErrNotExist, got %v", err)
	}
	if n := gets.Load(); n != 1 {
		t.Fatalf("%d GETs for an absent object, want 1", n)
	}
	ents, _ := os.ReadDir(local.Dir())
	for _, e := range ents {
		t.Errorf("failed fill left %s behind", e.Name())
	}
	if st := tiered.Stats(); st.Promotions != 0 || st.FillRetries != 0 {
		t.Fatalf("stats %+v, want no promotion and no discarded attempt", st)
	}
}

// TestTieredSurvivesS3Faults fills through a faulty bucket: 500s, torn
// and corrupt bodies, and slow reads each cost retries but end in the
// published bytes; a bucket that corrupts every read fails the fill with
// ErrDigestMismatch and leaves nothing in the local tier.
func TestTieredSurvivesS3Faults(t *testing.T) {
	cases := []struct {
		name   string
		faults fakes3.Faults
	}{
		{"500s", fakes3.Faults{FailGets: 2}},
		{"torn bodies", fakes3.Faults{TornGets: 2}},
		{"corrupt bodies", fakes3.Faults{CorruptGets: 2}},
		{"slow reads", fakes3.Faults{SlowReadBPS: 256 << 10}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tiered, fake := newTiered(t)
			data := testBlob(64<<10, 4)
			d := seedObject(fake, data)
			fake.SetFaults(tc.faults)
			path, err := tiered.Resolve(d)
			if err != nil {
				t.Fatalf("fill under %s: %v", tc.name, err)
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, data) {
				t.Fatal("promoted bytes differ")
			}
		})
	}
	t.Run("gives up cleanly", func(t *testing.T) {
		tiered, fake := newTiered(t)
		d := seedObject(fake, testBlob(8192, 5))
		fake.SetFaults(fakes3.Faults{CorruptGets: 100})
		if _, err := tiered.Resolve(d); !errors.Is(err, store.ErrDigestMismatch) {
			t.Fatalf("fill of a permanently corrupt object: %v, want ErrDigestMismatch", err)
		}
		ents, _ := os.ReadDir(tiered.Local.Dir())
		for _, e := range ents {
			t.Errorf("failed fill left %s behind", e.Name())
		}
	})
}

// TestTieredConcurrentBudget storms a tier whose budget holds two of six
// objects: every goroutine pins, resolves and stats, so evictions run
// while other goroutines hold pins. A pinned resolve must always find
// its file on disk.
func TestTieredConcurrentBudget(t *testing.T) {
	tiered, fake := newTiered(t)
	const size = 4096
	var ds []store.Digest
	for i := 0; i < 6; i++ {
		ds = append(ds, seedObject(fake, testBlob(size, byte(60+i))))
	}
	tiered.Budget = 2 * size

	const workers, rounds = 8, 30
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				d := ds[(g*7+r*5)%len(ds)]
				tiered.Pin(d)
				path, err := tiered.Resolve(d)
				if err != nil {
					t.Errorf("worker %d round %d: %v", g, r, err)
				} else if _, err := os.Stat(path); err != nil {
					t.Errorf("worker %d round %d: pinned object gone: %v", g, r, err)
				}
				tiered.Unpin(d)
			}
		}(g)
	}
	wg.Wait()
	if st := tiered.Stats(); st.Evictions == 0 {
		t.Fatalf("stats %+v: no eviction happened", st)
	}
}
