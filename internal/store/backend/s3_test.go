package backend_test

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"mlcache/internal/store"
	"mlcache/internal/store/backend"
	"mlcache/internal/store/backend/fakes3"
)

func TestS3RoundTrip(t *testing.T) {
	s3, fake := newFakeS3(t)
	ctx := context.Background()
	data := testBlob(4096, 1)
	d := store.DigestBytes(data)

	if _, err := s3.Head(ctx, d); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Head of absent object: %v, want ErrNotExist", err)
	}
	n, err := s3.Put(ctx, d, bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if n != int64(len(data)) {
		t.Fatalf("Put consumed %d bytes, want %d", n, len(data))
	}
	info, err := s3.Head(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != int64(len(data)) || info.Digest != d {
		t.Fatalf("Head: %+v", info)
	}
	if got := readAll(t, s3, d); !bytes.Equal(got, data) {
		t.Fatal("Get returned different bytes")
	}
	if err := s3.Delete(ctx, d); err != nil {
		t.Fatal(err)
	}
	if err := s3.Delete(ctx, d); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("double delete: %v, want ErrNotExist", err)
	}
	if st := fake.Stats(); st.AuthFailures != 0 {
		t.Fatalf("signed requests rejected: %+v", st)
	}
}

func TestS3RejectsBadCredentials(t *testing.T) {
	_, fake := newFakeS3(t)
	srvURL := "" // rebuilt below with wrong secret against the same fake
	srv := httptest.NewServer(fake)
	defer srv.Close()
	srvURL = srv.URL
	bad, err := backend.NewS3(backend.S3Config{
		Endpoint: srvURL, Bucket: "artifacts",
		AccessKey: "AKTEST", SecretKey: "wrong",
		Insecure: true, Retries: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := store.DigestBytes([]byte("x"))
	if _, err := bad.Put(context.Background(), d, strings.NewReader("x"), 1); err == nil {
		t.Fatal("put with wrong secret succeeded")
	}
	if st := fake.Stats(); st.AuthFailures == 0 {
		t.Fatal("fake accepted a bad signature")
	}
}

func TestS3RefusesCredentialsOverPlaintext(t *testing.T) {
	_, err := backend.NewS3(backend.S3Config{
		Endpoint: "http://bucket.example.com", Bucket: "b",
		AccessKey: "AK", SecretKey: "leakme",
	})
	if err == nil || !strings.Contains(err.Error(), "plaintext") {
		t.Fatalf("credentials over http accepted: %v", err)
	}
	// Insecure explicitly allows it (loopback fakes, trusted networks).
	if _, err := backend.NewS3(backend.S3Config{
		Endpoint: "http://127.0.0.1:9", Bucket: "b",
		AccessKey: "AK", SecretKey: "ok", Insecure: true,
	}); err != nil {
		t.Fatalf("Insecure override rejected: %v", err)
	}
	// https never needed the override.
	if _, err := backend.NewS3(backend.S3Config{
		Endpoint: "https://bucket.example.com", Bucket: "b",
		AccessKey: "AK", SecretKey: "ok",
	}); err != nil {
		t.Fatalf("credentials over https rejected: %v", err)
	}
}

func TestS3PutRetriesServerErrors(t *testing.T) {
	s3, fake := newFakeS3(t)
	fake.SetFaults(fakes3.Faults{FailPuts: 2})
	data := testBlob(1024, 2)
	d := store.DigestBytes(data)
	if _, err := s3.Put(context.Background(), d, bytes.NewReader(data), int64(len(data))); err != nil {
		t.Fatalf("Put did not survive 2 injected 500s: %v", err)
	}
	if got := readAll(t, s3, d); !bytes.Equal(got, data) {
		t.Fatal("stored bytes differ")
	}
	if st := fake.Stats(); st.Faults != 2 || st.Puts != 3 {
		t.Fatalf("stats %+v, want 2 faults over 3 puts", st)
	}
}

func TestS3PutRefusesWrongETag(t *testing.T) {
	s3, fake := newFakeS3(t)
	fake.SetFaults(fakes3.Faults{WrongETags: 1})
	data := testBlob(1024, 3)
	d := store.DigestBytes(data)
	// First attempt: endpoint answers an ETag that is not the body's MD5
	// (and stores nothing). The client must refuse that acknowledgement
	// and retry; the second attempt stores for real.
	if _, err := s3.Put(context.Background(), d, bytes.NewReader(data), int64(len(data))); err != nil {
		t.Fatalf("Put did not survive an ETag mismatch: %v", err)
	}
	if got := readAll(t, s3, d); !bytes.Equal(got, data) {
		t.Fatal("stored bytes differ")
	}
	if st := fake.Stats(); st.Puts != 2 {
		t.Fatalf("stats %+v, want the wrong-ETag attempt retried once", st)
	}
}

func TestS3ListPaginates(t *testing.T) {
	s3, fake := newFakeS3(t)
	ctx := context.Background()
	want := map[store.Digest]int64{}
	for i := 0; i < 8; i++ { // fake pages at 3 keys, so 3 pages
		data := testBlob(100+i, byte(10+i))
		want[seedObject(fake, data)] = int64(len(data))
	}
	// Foreign keys in the bucket must be skipped, not crash the parse.
	fake.PutObject("mlca/README.txt", []byte("not an object"))
	fake.PutObject("other-app/xyz.mlca", []byte("not ours"))

	got := map[store.Digest]int64{}
	if err := s3.List(ctx, func(info backend.ObjectInfo) error {
		got[info.Digest] = info.Size
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("listed %d objects, want %d", len(got), len(want))
	}
	for d, size := range want {
		if got[d] != size {
			t.Fatalf("object %s: size %d, want %d", d, got[d], size)
		}
	}
	if st := fake.Stats(); st.Lists < 3 {
		t.Fatalf("stats %+v: pagination not exercised", st)
	}
}

func TestObjectKeyRoundTrip(t *testing.T) {
	d := store.DigestBytes([]byte("some object"))
	key := backend.ObjectKey("mlca/", d)
	got, ok := backend.ParseObjectKey("mlca/", key)
	if !ok || got != d {
		t.Fatalf("round trip failed: %q -> %v %v", key, got, ok)
	}
	for _, bad := range []string{
		"mlca/" + strings.ToUpper(d.Hex()) + ".mlca", // uppercase alias
		"mlca/" + d.Hex(),                // missing suffix
		"mlca/sub/" + d.Hex() + ".mlca",  // nested
		"other/" + d.Hex() + ".mlca",     // wrong prefix
		"mlca/" + d.Hex()[:63] + ".mlca", // short
		"mlca/..%2f..%2fescape.mlca",     // junk
	} {
		if _, ok := backend.ParseObjectKey("mlca/", bad); ok {
			t.Fatalf("hostile key %q parsed as an object", bad)
		}
	}
}

// FuzzS3ObjectKey: ParseObjectKey must never panic, and must accept
// exactly the canonical spellings — anything it accepts must re-render
// to the identical key.
func FuzzS3ObjectKey(f *testing.F) {
	d := store.DigestBytes([]byte("seed"))
	f.Add("mlca/", backend.ObjectKey("mlca/", d))
	f.Add("mlca/", "mlca/zz.mlca")
	f.Add("", d.Hex()+".mlca")
	f.Add("p/", "p/../escape.mlca")
	f.Fuzz(func(t *testing.T, prefix, key string) {
		d, ok := backend.ParseObjectKey(prefix, key)
		if !ok {
			return
		}
		if rendered := backend.ObjectKey(prefix, d); rendered != key {
			t.Fatalf("accepted non-canonical key %q (canonical %q)", key, rendered)
		}
	})
}
