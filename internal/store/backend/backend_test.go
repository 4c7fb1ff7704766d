package backend_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"mlcache/internal/store"
	"mlcache/internal/store/backend"
	"mlcache/internal/store/backend/fakes3"
	"mlcache/internal/trace"
)

// newFakeS3 starts an in-process fake S3 and returns an S3 backend
// pointed at it, plus the fake for fault arming and stats.
func newFakeS3(t *testing.T) (*backend.S3, *fakes3.Server) {
	t.Helper()
	backend.ShortenRetryWaits(t)
	fake := fakes3.New(fakes3.Config{
		Bucket:    "artifacts",
		AccessKey: "AKTEST",
		SecretKey: "sekrit",
	})
	srv := httptest.NewServer(fake)
	t.Cleanup(srv.Close)
	s3, err := backend.NewS3(backend.S3Config{
		Endpoint:  srv.URL,
		Bucket:    "artifacts",
		AccessKey: "AKTEST",
		SecretKey: "sekrit",
		Insecure:  true, // loopback httptest is plaintext
	})
	if err != nil {
		t.Fatal(err)
	}
	return s3, fake
}

// seedObject plants bytes in the fake bucket under their digest key and
// returns the digest.
func seedObject(fake *fakes3.Server, data []byte) store.Digest {
	d := store.DigestBytes(data)
	fake.PutObject(backend.ObjectKey("mlca/", d), data)
	return d
}

// testBlob builds n deterministic bytes.
func testBlob(n int, seed byte) []byte {
	b := make([]byte, n)
	x := uint64(seed)*2862933555777941757 + 3037000493
	for i := range b {
		x = x*2862933555777941757 + 3037000493
		b[i] = byte(x >> 56)
	}
	return b
}

// writeArtifact writes an n-reference MLCA artifact and returns its
// path and digest.
func writeArtifact(t *testing.T, dir string, n int, seed uint64) (string, store.Digest) {
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
	d, _, err := store.DigestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, d
}

// readAll pulls an object fully through Backend.Get.
func readAll(t *testing.T, b backend.Backend, d store.Digest) []byte {
	t.Helper()
	rc, err := b.Get(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(rc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
