package backend_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"mlcache/internal/store"
	"mlcache/internal/store/backend"
)

// tornHandler serves the artifact but cuts the first full-GET body short,
// forcing the stream down the Range-resume path. With ignoreRange it
// answers the resume with the full body (200), as a server without
// Range support would.
type tornHandler struct {
	inner       http.Handler
	ignoreRange bool
	torn        atomic.Bool
	rangeGets   atomic.Int64
}

func (h *tornHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get("Range") != "" {
		h.rangeGets.Add(1)
		if h.ignoreRange {
			r.Header.Del("Range")
		}
	} else if !h.torn.Swap(true) {
		rec := httptest.NewRecorder()
		h.inner.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		w.Header().Set("Content-Length", fmt.Sprint(len(body)))
		w.WriteHeader(rec.Code)
		w.Write(body[:len(body)/3]) // lie about length, then hang up
		return
	}
	h.inner.ServeHTTP(w, r)
}

func TestHTTPResumesTornBody(t *testing.T) {
	for _, ignoreRange := range []bool{false, true} {
		t.Run(fmt.Sprintf("ignoreRange=%v", ignoreRange), func(t *testing.T) {
			path, d := writeArtifact(t, t.TempDir(), 2000, 3)
			th := &tornHandler{inner: &store.Handler{Source: store.Static{d: path}}, ignoreRange: ignoreRange}
			srv := httptest.NewServer(th)
			defer srv.Close()

			h := &backend.HTTP{Base: srv.URL, Retries: 4}
			got := readAll(t, h, d)
			want, _ := os.ReadFile(path)
			if !bytes.Equal(got, want) {
				t.Fatal("resumed stream delivered different bytes")
			}
			if !th.torn.Load() {
				t.Fatal("test served nothing torn; resume path not exercised")
			}
			if n := th.rangeGets.Load(); n != 1 {
				t.Fatalf("%d Range GETs, want exactly 1 resume", n)
			}
		})
	}
}

// TestHTTPStatusErrors pins the uniform error shape: every non-success
// response surfaces a *StatusError carrying the digest and status code,
// 404/401/403 on Get are terminal (and 404 is os.ErrNotExist), and other
// Get failures are retried.
func TestHTTPStatusErrors(t *testing.T) {
	d := store.DigestBytes([]byte("the object"))
	cases := []struct {
		name     string
		code     int
		op       string // "get" or "put"
		terminal bool   // no retries expected
	}{
		{"get 404", http.StatusNotFound, "get", true},
		{"get 401", http.StatusUnauthorized, "get", true},
		{"get 403", http.StatusForbidden, "get", true},
		{"get 500", http.StatusInternalServerError, "get", false},
		{"get 503", http.StatusServiceUnavailable, "get", false},
		{"put 500", http.StatusInternalServerError, "put", true},
		{"put 403", http.StatusForbidden, "put", true},
		{"put 400", http.StatusBadRequest, "put", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var hits atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hits.Add(1)
				http.Error(w, "server says no", tc.code)
			}))
			defer srv.Close()
			h := &backend.HTTP{Base: srv.URL, Retries: 1}
			var err error
			if tc.op == "get" {
				_, err = h.Get(context.Background(), d)
			} else {
				_, err = h.Put(context.Background(), d, strings.NewReader("the object"), 10)
			}
			if err == nil {
				t.Fatalf("%s against %d succeeded", tc.op, tc.code)
			}
			var se *backend.StatusError
			if !errors.As(err, &se) {
				t.Fatalf("error %v (%T) does not wrap *StatusError", err, err)
			}
			if se.StatusCode != tc.code || se.Digest != d || se.Op != tc.op {
				t.Fatalf("StatusError %+v, want op=%s code=%d digest=%s", se, tc.op, tc.code, d)
			}
			for _, want := range []string{d.String(), fmt.Sprint(tc.code)} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not mention %q", err, want)
				}
			}
			if got := errors.Is(err, os.ErrNotExist); got != (tc.code == http.StatusNotFound) {
				t.Fatalf("errors.Is(err, os.ErrNotExist) = %v for %d", got, tc.code)
			}
			switch n := hits.Load(); {
			case tc.terminal && n != 1:
				t.Fatalf("terminal status %d was sent %d times", tc.code, n)
			case !tc.terminal && n != 2:
				t.Fatalf("retryable status %d was sent %d times, want 2 (Retries 1)", tc.code, n)
			}
		})
	}
}

func TestHTTPPutGetRoundTrip(t *testing.T) {
	fs, err := store.OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(&store.Handler{Source: fs, Uploads: fs})
	defer srv.Close()
	h := &backend.HTTP{Base: srv.URL}
	ctx := context.Background()

	path, d := writeArtifact(t, t.TempDir(), 200, 2)
	data, _ := os.ReadFile(path)
	put := func(name store.Digest, size int64) error {
		n, err := h.Put(ctx, name, bytes.NewReader(data), size)
		if err == nil && n != int64(len(data)) {
			t.Fatalf("Put consumed %d bytes, want %d", n, len(data))
		}
		return err
	}
	if err := put(d, int64(len(data))); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Put is idempotent, with or without a known size.
	if err := put(d, -1); err != nil {
		t.Fatalf("re-Put: %v", err)
	}
	// Bytes that don't match the claimed digest are rejected.
	if err := put(store.DigestBytes([]byte("claimed")), int64(len(data))); !errors.Is(err, store.ErrDigestMismatch) {
		t.Fatalf("mismatched Put: want ErrDigestMismatch, got %v", err)
	}

	if got := readAll(t, h, d); !bytes.Equal(got, data) {
		t.Fatal("Get returned different bytes than were Put")
	}
	info, err := h.Head(ctx, d)
	if err != nil || info.Size != int64(len(data)) {
		t.Fatalf("Head: %+v, %v; want size %d", info, err, len(data))
	}
	if _, err := h.Head(ctx, store.DigestBytes([]byte("absent"))); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Head of absent object: %v, want ErrNotExist", err)
	}
	if err := h.List(ctx, func(backend.ObjectInfo) error { return nil }); !errors.Is(err, errors.ErrUnsupported) {
		t.Fatalf("List: %v, want ErrUnsupported", err)
	}
	if err := h.Delete(ctx, d); !errors.Is(err, errors.ErrUnsupported) {
		t.Fatalf("Delete: %v, want ErrUnsupported", err)
	}
}

// httpOrigin serves src at an artifact endpoint counting GETs, and
// returns an HTTP backend pointed at it.
func httpOrigin(t *testing.T, src store.Resolver) (*backend.HTTP, *atomic.Int64) {
	t.Helper()
	var gets atomic.Int64
	h := &store.Handler{Source: src}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			gets.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return &backend.HTTP{Base: srv.URL}, &gets
}
