package backend

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"mlcache/internal/retry"
	"mlcache/internal/store"
)

// StatusError is an HTTP failure from an artifact endpoint, carrying the
// operation, the digest it concerned, and the status code uniformly, so
// callers can log or branch on any of them without string matching.
type StatusError struct {
	// Op is the request: "get", "put" or "head".
	Op string
	// Digest names the object the request concerned.
	Digest store.Digest
	// StatusCode is the HTTP status the endpoint answered.
	StatusCode int
	// Status is the full status line, Msg the (truncated) response body.
	Status, Msg string
}

func (e *StatusError) Error() string {
	s := fmt.Sprintf("backend: http: %s %s: %s", e.Op, e.Digest, e.Status)
	if e.Msg != "" {
		s += ": " + e.Msg
	}
	return s
}

// statusError builds the uniform error for a non-success response,
// consuming up to 1 KiB of the body as the message.
func statusError(op string, d store.Digest, resp *http.Response) *StatusError {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
	return &StatusError{
		Op: op, Digest: d,
		StatusCode: resp.StatusCode, Status: resp.Status,
		Msg: strings.TrimSpace(string(msg)),
	}
}

// HTTP is the Backend over an artifact endpoint (store.Handler on a
// coordinator or an mlcserve origin). Get retries transport faults and
// the statuses retry.Transient lists under httpGetPolicy, and its stream
// resumes a broken body with a Range request from the last byte it
// delivered instead of starting over. The stream is not verified:
// whoever commits it does so through FileStore.Put, which hashes before
// the rename, so any splice of attempts is either exactly the published
// bytes or rejected.
type HTTP struct {
	// Base is the endpoint's base URL, e.g. "https://coord:9191".
	Base string
	// HTTPClient issues the requests; nil means http.DefaultClient. The
	// chaos harness and the authenticated transport both plug in here.
	HTTPClient *http.Client
	// ThrottleBPS caps download throughput in bytes per second (0 =
	// unlimited). Chiefly a fault-injection knob: it widens the window in
	// which a transfer is genuinely in flight, so kill-mid-fetch tests
	// kill mid-fetch.
	ThrottleBPS int64
	// Logf receives transfer events; nil means silent.
	Logf func(format string, args ...any)
}

var _ Backend = (*HTTP)(nil)

func (h *HTTP) logf(format string, args ...any) {
	if h.Logf != nil {
		h.Logf(format, args...)
	}
}

func (h *HTTP) httpClient() *http.Client {
	if h.HTTPClient != nil {
		return h.HTTPClient
	}
	return http.DefaultClient
}

func (h *HTTP) url(d store.Digest) string {
	return strings.TrimSuffix(h.Base, "/") + store.PathArtifacts + d.String()
}

// httpGetPolicy bounds the requests of one Get stream, its resumes
// included.
var httpGetPolicy = retry.Policy{Attempts: 9, Base: 100 * time.Millisecond}

// Get implements Backend. A 404 wraps os.ErrNotExist; it and every other
// status retry.Transient does not list end the Get at once. Transport
// faults and transient statuses are retried within httpGetPolicy, whose
// budget the returned stream's resumes share; a resume that fails ends
// the stream with the error marked retry.Permanent.
func (h *HTTP) Get(ctx context.Context, d store.Digest) (io.ReadCloser, error) {
	b := &httpBody{h: h, ctx: ctx, d: d}
	if err := b.open(); err != nil {
		return nil, err
	}
	return b, nil
}

// httpBody is a Get stream that survives broken connections: a failed
// Read closes the response and the next Read continues from the bytes
// already delivered.
type httpBody struct {
	h   *HTTP
	ctx context.Context
	d   store.Digest

	body     io.ReadCloser // nil after a break, until the resume opens
	off      int64         // bytes delivered to the caller
	from     int64         // off when body opened
	stalls   int           // bodies in a row that broke before delivering a byte
	attempts int           // requests issued
	broke    error         // why the body last broke

	// Pacing for ThrottleBPS.
	start time.Time
	paced int64
}

// open sends the request the stream continues from: the first at once,
// later ones after waits that start again from Base. A resume after
// bodies that broke before delivering a byte first waits as a retry
// after that many failed requests would, so an origin that hangs up
// before the stream's offset is not sent the stream's requests back to
// back. Every request of the stream counts against httpGetPolicy's
// attempts, and the request that spends the last of them ends the loop
// with the stream's count.
func (b *httpBody) open() error {
	if b.attempts >= httpGetPolicy.Attempts {
		return b.spent(b.broke)
	}
	if b.stalls > 0 {
		if err := httpGetPolicy.Wait(b.ctx, b.stalls); err != nil {
			return err
		}
	}
	return retry.Do(b.ctx, httpGetPolicy, func() error {
		b.attempts++
		body, err := b.request()
		if err != nil {
			b.h.logf("backend: http: get %s attempt %d: %v", b.d, b.attempts, err)
			if b.attempts >= httpGetPolicy.Attempts {
				return retry.Permanent(b.spent(err))
			}
			return err
		}
		b.body, b.from = body, b.off
		return nil
	})
}

// spent is the stream's error once its requests are spent; err is the
// last failure.
func (b *httpBody) spent(err error) error {
	return fmt.Errorf("backend: http: get %s: %d requests spent: %w", b.d, b.attempts, err)
}

// request issues one GET from b.off and returns a body positioned there.
func (b *httpBody) request() (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(b.ctx, http.MethodGet, b.h.url(b.d), nil)
	if err != nil {
		return nil, retry.Permanent(err)
	}
	if b.off > 0 {
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-", b.off))
	}
	resp, err := b.h.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		// A full body: the server ignored the Range (or there was none).
		// Skip what the caller already has.
		if _, err := io.CopyN(io.Discard, resp.Body, b.off); err != nil {
			resp.Body.Close()
			return nil, fmt.Errorf("backend: http: get %s: skipping %d delivered bytes: %w", b.d, b.off, err)
		}
		return resp.Body, nil
	case http.StatusPartialContent:
		return resp.Body, nil
	}
	defer resp.Body.Close()
	serr := statusError("get", b.d, resp)
	switch {
	case resp.StatusCode == http.StatusNotFound:
		return nil, retry.Permanent(fmt.Errorf("%w: %w", serr, os.ErrNotExist))
	case !retry.Transient(resp.StatusCode):
		return nil, retry.Permanent(serr)
	}
	return nil, serr
}

// Read implements io.Reader, resuming after a broken body.
func (b *httpBody) Read(p []byte) (int, error) {
	for {
		if b.body == nil {
			if err := b.open(); err != nil {
				return 0, retry.Permanent(err) // the stream's requests were the retries
			}
		}
		n, err := b.body.Read(p)
		b.off += int64(n)
		if perr := b.pace(n); perr != nil {
			return n, perr
		}
		if err == nil || err == io.EOF {
			return n, err
		}
		b.body.Close()
		b.body = nil
		b.broke = err
		if b.off == b.from {
			b.stalls++
		} else {
			b.stalls = 0
		}
		b.h.logf("backend: http: get %s: body broke at byte %d: %v; resuming", b.d, b.off, err)
		if n > 0 {
			return n, nil
		}
	}
}

// pace sleeps off any lead over ThrottleBPS after n more bytes.
func (b *httpBody) pace(n int) error {
	if b.h.ThrottleBPS <= 0 || n == 0 {
		return nil
	}
	if b.start.IsZero() {
		b.start = time.Now()
	}
	b.paced += int64(n)
	ahead := time.Duration(float64(b.paced)/float64(b.h.ThrottleBPS)*float64(time.Second)) - time.Since(b.start)
	if ahead <= 0 {
		return nil
	}
	select {
	case <-b.ctx.Done():
		return b.ctx.Err()
	case <-time.After(ahead):
		return nil
	}
}

// Close implements io.Closer.
func (b *httpBody) Close() error {
	if b.body == nil {
		return nil
	}
	err := b.body.Close()
	b.body = nil
	return err
}

// Put implements Backend by publishing r under digest d (PUT). The
// server re-verifies the hash; a mismatch surfaces as
// store.ErrDigestMismatch. size < 0 sends the body chunked.
func (h *HTTP) Put(ctx context.Context, d store.Digest, r io.Reader, size int64) (int64, error) {
	cr := &countingReader{r: r}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, h.url(d), cr)
	if err != nil {
		return 0, err
	}
	if size >= 0 {
		req.ContentLength = size
	}
	resp, err := h.httpClient().Do(req)
	if err != nil {
		return cr.n, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		err := statusError("put", d, resp)
		if resp.StatusCode == http.StatusUnprocessableEntity {
			return cr.n, fmt.Errorf("%w (%w)", err, store.ErrDigestMismatch)
		}
		return cr.n, err
	}
	return cr.n, nil
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Head implements Backend.
func (h *HTTP) Head(ctx context.Context, d store.Digest) (ObjectInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodHead, h.url(d), nil)
	if err != nil {
		return ObjectInfo{}, err
	}
	resp, err := h.httpClient().Do(req)
	if err != nil {
		return ObjectInfo{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		serr := statusError("head", d, resp)
		if resp.StatusCode == http.StatusNotFound {
			return ObjectInfo{}, fmt.Errorf("%w: %w", serr, os.ErrNotExist)
		}
		return ObjectInfo{}, serr
	}
	info := ObjectInfo{Digest: d, Size: resp.ContentLength}
	if t, err := http.ParseTime(resp.Header.Get("Last-Modified")); err == nil {
		info.ModTime = t
	}
	return info, nil
}

// List implements Backend. The artifact endpoint has no listing; Tiered
// lists only for GC, which workers never run.
func (h *HTTP) List(context.Context, func(ObjectInfo) error) error {
	return fmt.Errorf("backend: http: list %s: %w", h.Base, errors.ErrUnsupported)
}

// Delete implements Backend. The artifact endpoint has no delete.
func (h *HTTP) Delete(_ context.Context, d store.Digest) error {
	return fmt.Errorf("backend: http: delete %s: %w", d, errors.ErrUnsupported)
}
