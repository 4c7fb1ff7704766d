package store

import (
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"net/http"
	"os"
	"strings"
)

// Security is the one flag set that secures every wire endpoint —
// coordinator protocol, artifact store, and the mlcserve API share it so
// a fleet is configured once. It covers both directions: a server loads
// CertFile/KeyFile (serve.Listen) and requires Token of inbound requests
// (as the key of a serve tenant); a client trusts CAFile and presents
// Token outbound. The zero value is the historical open/plaintext
// behaviour.
//
// The token is a bearer secret (the PR 6 tenant-auth shape: a client
// sends `Authorization: Bearer <token>` or `X-API-Key: <token>`), so
// sending it over plaintext HTTP would hand it to the network. Both
// directions refuse that combination unless Insecure explicitly allows
// it (loopback tests, trusted networks).
type Security struct {
	// Token is the shared bearer secret ("" = no authentication).
	Token string
	// CertFile/KeyFile enable TLS serving.
	CertFile, KeyFile string
	// CAFile adds a PEM root the client trusts (e.g. a fleet's private
	// CA); "" means the system pool.
	CAFile string
	// Insecure permits the token over plaintext HTTP.
	Insecure bool
}

// TLSServer reports whether server-side TLS is configured.
func (s Security) TLSServer() bool { return s.CertFile != "" || s.KeyFile != "" }

// CheckServer validates the server-side combination up front so a
// misconfigured fleet fails at startup with a clear message, not by
// leaking a secret.
func (s Security) CheckServer() error {
	if (s.CertFile == "") != (s.KeyFile == "") {
		return fmt.Errorf("store: TLS needs both a certificate and a key file")
	}
	if s.Token != "" && !s.TLSServer() && !s.Insecure {
		return fmt.Errorf("store: refusing to accept a bearer token over plaintext HTTP; configure TLS (cert+key) or pass -insecure")
	}
	return nil
}

// ServerTLSConfig loads the serving certificate; (nil, nil) when TLS is
// not configured.
func (s Security) ServerTLSConfig() (*tls.Config, error) {
	if !s.TLSServer() {
		return nil, nil
	}
	if err := s.CheckServer(); err != nil {
		return nil, err
	}
	cert, err := tls.LoadX509KeyPair(s.CertFile, s.KeyFile)
	if err != nil {
		return nil, fmt.Errorf("store: loading TLS keypair: %w", err)
	}
	return &tls.Config{Certificates: []tls.Certificate{cert}}, nil
}

// ClientTransport builds the outbound RoundTripper: TLS trust (CAFile
// appended to the system pool) plus bearer-token injection. The token
// refuses to travel over a plaintext scheme unless Insecure.
func (s Security) ClientTransport() (http.RoundTripper, error) {
	base := http.DefaultTransport
	if s.CAFile != "" {
		pem, err := os.ReadFile(s.CAFile)
		if err != nil {
			return nil, fmt.Errorf("store: reading CA file: %w", err)
		}
		pool, err := x509.SystemCertPool()
		if err != nil {
			pool = x509.NewCertPool()
		}
		if !pool.AppendCertsFromPEM(pem) {
			return nil, fmt.Errorf("store: no certificates in CA file %s", s.CAFile)
		}
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.TLSClientConfig = &tls.Config{RootCAs: pool}
		base = t
	}
	if s.Token == "" {
		return base, nil
	}
	return &tokenTransport{base: base, token: s.Token, insecure: s.Insecure}, nil
}

// Client returns an *http.Client over ClientTransport.
func (s Security) Client() (*http.Client, error) {
	rt, err := s.ClientTransport()
	if err != nil {
		return nil, err
	}
	return &http.Client{Transport: rt}, nil
}

// tokenTransport injects the bearer token, guarding the plaintext case.
type tokenTransport struct {
	base     http.RoundTripper
	token    string
	insecure bool
}

func (t *tokenTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Scheme != "https" && !t.insecure {
		return nil, fmt.Errorf("store: refusing to send bearer token over plaintext %s to %s; use https or -insecure",
			req.URL.Scheme, req.URL.Host)
	}
	// Per RoundTripper contract the request is not mutated; clone first.
	req = req.Clone(req.Context())
	req.Header.Set("Authorization", "Bearer "+t.token)
	return t.base.RoundTrip(req)
}

// RequestToken extracts a request's bearer secret (Authorization: Bearer
// or X-API-Key), "" when absent.
func RequestToken(r *http.Request) string {
	if auth := r.Header.Get("Authorization"); auth != "" {
		if k, ok := strings.CutPrefix(auth, "Bearer "); ok {
			return strings.TrimSpace(k)
		}
	}
	return r.Header.Get("X-API-Key")
}
