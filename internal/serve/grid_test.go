package serve

import (
	"bytes"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"mlcache/internal/coord"
	"mlcache/internal/store"
	"mlcache/internal/synth"
	"mlcache/internal/trace"
)

// leasedGridServer hosts gridSpec over an artifact trace on a Server whose
// tenant table is the one key token ("" = open access), the way
// `sweep -serve -token` builds it.
func leasedGridServer(t *testing.T, token string) (*httptest.Server, store.Digest) {
	t.Helper()
	arena, err := trace.Materialize(synth.PaperStream(1, 5000))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "workload.mlca")
	if err := trace.WriteArtifact(path, arena); err != nil {
		t.Fatal(err)
	}
	d, _, err := store.DigestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := gridSpec()
	spec.Refs, spec.Seed = 0, 0
	spec.TracePath, spec.ArtifactDigest = path, d.String()
	c, err := coord.New(coord.Config{Job: spec})
	if err != nil {
		t.Fatal(err)
	}
	var cfg Config
	if token != "" {
		cfg.Tenants = testTenants(t, TenantConfig{Name: "sweep", Key: token})
	}
	s := newTestServer(t, cfg)
	s.Lease(c, spec)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv, d
}

// TestLeasedGridRequiresToken: with a token, a leased grid's protocol and
// trace endpoints answer 401 without it and 200 with it in either header
// or from a store.Security client; without one both are open.
func TestLeasedGridRequiresToken(t *testing.T) {
	do := func(t *testing.T, cl *http.Client, srv *httptest.Server, method, path, hdr, val string) int {
		t.Helper()
		body := []byte(nil)
		if method == http.MethodPost {
			body = []byte(`{"worker":"w1"}`)
		}
		req, err := http.NewRequest(method, srv.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if hdr != "" {
			req.Header.Set(hdr, val)
		}
		resp, err := cl.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	t.Run("token", func(t *testing.T) {
		srv, d := leasedGridServer(t, "s3cret")
		authed, err := store.Security{Token: "s3cret", Insecure: true}.Client()
		if err != nil {
			t.Fatal(err)
		}
		for _, ep := range []struct{ method, path string }{
			{http.MethodPost, coord.PathRegister},
			{http.MethodGet, store.PathArtifacts + d.String()},
		} {
			for _, tc := range []struct {
				name     string
				cl       *http.Client
				hdr, val string
				want     int
			}{
				{"no key", http.DefaultClient, "", "", http.StatusUnauthorized},
				{"wrong key", http.DefaultClient, "Authorization", "Bearer wrong", http.StatusUnauthorized},
				{"bearer", http.DefaultClient, "Authorization", "Bearer s3cret", http.StatusOK},
				{"x-api-key", http.DefaultClient, "X-API-Key", "s3cret", http.StatusOK},
				{"security client", authed, "", "", http.StatusOK},
			} {
				if got := do(t, tc.cl, srv, ep.method, ep.path, tc.hdr, tc.val); got != tc.want {
					t.Errorf("%s %s, %s: %d, want %d", ep.method, ep.path, tc.name, got, tc.want)
				}
			}
		}
	})

	t.Run("open", func(t *testing.T) {
		srv, d := leasedGridServer(t, "")
		if got := do(t, http.DefaultClient, srv, http.MethodPost, coord.PathRegister, "", ""); got != http.StatusOK {
			t.Errorf("register without a token configured: %d, want 200", got)
		}
		if got := do(t, http.DefaultClient, srv, http.MethodGet, store.PathArtifacts+d.String(), "", ""); got != http.StatusOK {
			t.Errorf("artifact GET without a token configured: %d, want 200", got)
		}
		if got := do(t, http.DefaultClient, srv, http.MethodPut, store.PathArtifacts+d.String(), "", ""); got != http.StatusMethodNotAllowed {
			t.Errorf("artifact PUT without a store: %d, want 405", got)
		}
	})

	t.Run("no grid, no store", func(t *testing.T) {
		// mlcserve without -artifact-store: no lease endpoints and no
		// /artifacts/, whatever the digest or method.
		srv := httptest.NewServer(newTestServer(t, Config{}).Handler())
		defer srv.Close()
		d := store.DigestBytes([]byte("x"))
		for _, tc := range []struct{ method, path string }{
			{http.MethodPost, coord.PathRegister},
			{http.MethodPost, coord.PathLease},
			{http.MethodGet, store.PathArtifacts + d.String()},
			{http.MethodHead, store.PathArtifacts + d.String()},
			{http.MethodPut, store.PathArtifacts + d.String()},
			{http.MethodGet, store.PathArtifacts + "not-a-digest"},
		} {
			if got := do(t, http.DefaultClient, srv, tc.method, tc.path, "", ""); got != http.StatusNotFound {
				t.Errorf("%s %s: %d, want 404", tc.method, tc.path, got)
			}
		}
	})
}

// TestListen: Listen serves until Shutdown, and fails before serving on
// a taken port or an unreadable key pair.
func TestListen(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	srv, served, err := Listen("127.0.0.1:0", h, store.Security{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}

	t.Run("taken port", func(t *testing.T) {
		if _, _, err := Listen(srv.Addr, h, store.Security{}); err == nil {
			t.Fatalf("second Listen on %s succeeded", srv.Addr)
		}
	})
	t.Run("unreadable key pair", func(t *testing.T) {
		dir := t.TempDir()
		sec := store.Security{CertFile: filepath.Join(dir, "crt.pem"), KeyFile: filepath.Join(dir, "key.pem")}
		_, _, err := Listen("127.0.0.1:0", h, sec)
		if err == nil || !strings.Contains(err.Error(), "keypair") {
			t.Fatalf("Listen with missing cert and key = %v, want a keypair error", err)
		}
	})

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("served = %v, want http.ErrServerClosed", err)
	}
	if ln, err := net.Listen("tcp", srv.Addr); err != nil {
		t.Errorf("port still bound after Close: %v", err)
	} else {
		ln.Close()
	}
}
