package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlcache/internal/trace"
)

// writeTestArtifact writes an n-reference MLCA artifact and returns its
// path, digest, and header CRC.
func writeTestArtifact(t *testing.T, dir string, n int, seed uint64) (string, Digest, uint32) {
	t.Helper()
	refs := make([]trace.Ref, n)
	x := seed*2862933555777941757 + 3037000493
	for i := range refs {
		x = x*2862933555777941757 + 3037000493
		refs[i] = trace.Ref{Addr: x &^ 0x3, Kind: trace.Kind(x >> 62 % 3)}
	}
	path := filepath.Join(dir, fmt.Sprintf("t%d.mlca", seed))
	if err := trace.WriteArtifact(path, trace.NewArena(refs)); err != nil {
		t.Fatal(err)
	}
	d, _, err := DigestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	crc, err := trace.ArtifactChecksum(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, d, crc
}

func TestFileStorePutVerifyAndReject(t *testing.T) {
	fs, err := OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("the artifact bytes")
	d := DigestBytes(data)

	if _, err := fs.Put(bytes.NewReader(data), d); err != nil {
		t.Fatalf("Put: %v", err)
	}
	p, err := fs.Resolve(d)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	got, _ := os.ReadFile(p)
	if !bytes.Equal(got, data) {
		t.Fatal("stored bytes differ")
	}

	// Wrong bytes under a committed name: drained, existing object kept.
	if _, err := fs.Put(bytes.NewReader([]byte("liar")), d); err != nil {
		t.Fatalf("re-Put existing: %v", err)
	}
	got, _ = os.ReadFile(p)
	if !bytes.Equal(got, data) {
		t.Fatal("existing object was clobbered")
	}

	// Wrong bytes under a fresh name: ErrDigestMismatch, nothing committed.
	bogus := DigestBytes([]byte("something else"))
	if _, err := fs.Put(bytes.NewReader([]byte("liar")), bogus); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("want ErrDigestMismatch, got %v", err)
	}
	if _, err := fs.Resolve(bogus); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("mismatched upload was committed: %v", err)
	}
	ents, _ := os.ReadDir(fs.dir)
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("staging file %s left behind", e.Name())
		}
	}
}

func TestFileStoreSweepsTemps(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "put-123.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "put-123.tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("crashed staging file not swept")
	}
}

// TestOpenFileStoreAdoptsOldCacheDir opens a directory written by an
// older worker's artifact cache: its <hex>.mlca object is adopted as it
// is, the *.partial of a crashed download is neither listed nor resolved,
// and a crashed Put's staging file is swept.
func TestOpenFileStoreAdoptsOldCacheDir(t *testing.T) {
	dir := t.TempDir()
	path, d, _ := writeTestArtifact(t, t.TempDir(), 200, 3)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := DigestBytes([]byte("torn download"))
	object := filepath.Join(dir, d.Hex()+".mlca")
	partial := filepath.Join(dir, torn.Hex()+".mlca.partial")
	staging := filepath.Join(dir, "put-123.tmp")
	for _, f := range []struct {
		name string
		body []byte
	}{{object, data}, {partial, []byte("torn")}, {staging, []byte("torn")}} {
		if err := os.WriteFile(f.name, f.body, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	fs, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if p, err := fs.Resolve(d); err != nil || p != object {
		t.Fatalf("Resolve of the old object: %q, %v; want %q", p, err, object)
	}
	if got, err := fs.List(); err != nil || len(got) != 1 || got[0] != d {
		t.Fatalf("List: %v, %v; want only %s", got, err, d)
	}
	if _, err := fs.Resolve(torn); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Resolve of a crashed download's digest: %v, want ErrNotExist", err)
	}
	if _, err := os.Stat(staging); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("crashed staging file not swept")
	}
}

func TestHandlerServeRangeAndErrors(t *testing.T) {
	dir := t.TempDir()
	path, d, crc := writeTestArtifact(t, dir, 500, 1)
	data, _ := os.ReadFile(path)
	h := &Handler{Source: Static{d: path}}
	srv := httptest.NewServer(h)
	defer srv.Close()

	// Full GET.
	resp, err := http.Get(srv.URL + PathArtifacts + d.String())
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, data) {
		t.Fatalf("GET: %s, %d bytes (want %d)", resp.Status, len(body), len(data))
	}
	if got := resp.Header.Get(CRCHeader); got != fmt.Sprintf("%08x", crc) {
		t.Fatalf("CRC header %q, want %08x", got, crc)
	}

	// Range resume from byte 100.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+PathArtifacts+d.String(), nil)
	req.Header.Set("Range", "bytes=100-")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(body, data[100:]) {
		t.Fatalf("Range GET: %s, %d bytes (want %d)", resp.Status, len(body), len(data)-100)
	}

	// Unknown digest: 404. Malformed digest: 400. PUT without uploads: 405.
	for _, tc := range []struct {
		method, tail string
		want         int
	}{
		{http.MethodGet, DigestBytes([]byte("missing")).String(), http.StatusNotFound},
		{http.MethodGet, "sha256:nothex", http.StatusBadRequest},
		// %2F decodes to "/" in URL.Path, tripping the no-slash guard.
		{http.MethodGet, "..%2F..%2Fetc%2Fpasswd", http.StatusNotFound},
		{http.MethodPut, d.String(), http.StatusMethodNotAllowed},
		{http.MethodDelete, d.String(), http.StatusMethodNotAllowed},
	} {
		req, _ := http.NewRequest(tc.method, srv.URL+PathArtifacts+tc.tail, strings.NewReader("x"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: got %s, want %d", tc.method, tc.tail, resp.Status, tc.want)
		}
	}
}

func TestHandlerUpload(t *testing.T) {
	fs, err := OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(&Handler{Source: fs, Uploads: fs})
	defer srv.Close()

	path, d, _ := writeTestArtifact(t, t.TempDir(), 200, 2)
	data, _ := os.ReadFile(path)
	put := func(name Digest) int {
		req, _ := http.NewRequest(http.MethodPut, srv.URL+PathArtifacts+name.String(), bytes.NewReader(data))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := put(d); got != http.StatusCreated {
		t.Fatalf("PUT: %d, want 201", got)
	}
	// PUT is idempotent.
	if got := put(d); got != http.StatusCreated {
		t.Fatalf("re-PUT: %d, want 201", got)
	}
	// Bytes that don't match the claimed digest are rejected uncommitted.
	claimed := DigestBytes([]byte("claimed"))
	if got := put(claimed); got != http.StatusUnprocessableEntity {
		t.Fatalf("mismatched PUT: %d, want 422", got)
	}
	if _, err := fs.Resolve(claimed); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("mismatched PUT was committed: %v", err)
	}
	p, err := fs.Resolve(d)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(p); !bytes.Equal(got, data) {
		t.Fatal("committed bytes differ from the PUT body")
	}
}
