package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mlcache/internal/store"
	"mlcache/internal/store/backend"
)

func openFS(t *testing.T, dir string) backend.Backend {
	t.Helper()
	b, err := openBackend(dir, backend.S3Config{})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOpenBackendSelection: -dir alone is the directory, -s3-endpoint
// alone the bucket, both the directory tiered over the bucket, and
// neither an error.
func TestOpenBackendSelection(t *testing.T) {
	bucket := backend.S3Config{Endpoint: "https://s3.example.com", Bucket: "b"}
	for _, tc := range []struct {
		name string
		dir  string
		s3   backend.S3Config
		want string // the backend's type
	}{
		{"neither", "", backend.S3Config{}, "error"},
		{"dir only", t.TempDir(), backend.S3Config{}, "*backend.FS"},
		{"endpoint only", "", bucket, "*backend.S3"},
		{"dir and endpoint", t.TempDir(), bucket, "*backend.Tiered"},
	} {
		got := "error"
		b, err := openBackend(tc.dir, tc.s3)
		if err == nil {
			got = fmt.Sprintf("%T", b)
		}
		if got != tc.want {
			t.Errorf("%s: backend is %s (%v), want %s", tc.name, got, err, tc.want)
		}
	}
	// NewS3's refusals reach the CLI unchanged, with no typed-nil *S3 in
	// the interface.
	b, err := openBackend("", backend.S3Config{
		Endpoint: "http://s3.example.com", Bucket: "b",
		AccessKey: "AKTEST", SecretKey: "sekrit",
	})
	if err == nil || !strings.Contains(err.Error(), "plaintext") || b != nil {
		t.Fatalf("plaintext credentials: %v, %v", b, err)
	}
}

func TestAddVerifyGCRoundTrip(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	b := openFS(t, dir)

	// add: two files land under their digests.
	src := filepath.Join(t.TempDir(), "a.bin")
	if err := os.WriteFile(src, bytes.Repeat([]byte("alpha"), 400), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdAdd(ctx, b, []string{src}); err != nil {
		t.Fatal(err)
	}
	d, _, err := store.DigestFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := cmdStat(ctx, b, []string{d.String()}); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify(ctx, b, nil, true); err != nil {
		t.Fatal(err)
	}

	// Corrupt the object in place: verify must fail loudly.
	path, err := b.(*backend.FS).Resolve(d)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify(ctx, b, nil, true); err == nil {
		t.Fatal("verify passed a corrupt object")
	}

	// gc dry run touches nothing even with zero grace; apply reclaims the
	// unrooted object.
	old := time.Now().Add(-2 * time.Hour)
	os.Chtimes(path, old, old)
	if err := cmdGC(ctx, b, nil, "", time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := b.(*backend.FS).Resolve(d); err != nil {
		t.Fatal("dry-run gc deleted the object")
	}
	if err := cmdGC(ctx, b, []string{"-apply"}, "", time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := b.(*backend.FS).Resolve(d); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("apply gc kept the garbage: %v", err)
	}
}
