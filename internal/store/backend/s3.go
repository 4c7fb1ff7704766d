package backend

import (
	"context"
	"crypto/md5"
	"encoding/hex"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"mlcache/internal/retry"
	"mlcache/internal/store"
)

// S3Config configures the remote S3-compatible backend. Credentials
// follow the store.Security convention: a secret refuses to travel over
// plaintext HTTP unless Insecure explicitly allows it (loopback fakes,
// trusted networks) — a flag typo must not leak the key.
type S3Config struct {
	// Endpoint is the base URL, e.g. "https://s3.example.com" or
	// "http://127.0.0.1:9000" for a local fake. Path-style addressing:
	// objects live at {Endpoint}/{Bucket}/{key}.
	Endpoint string
	// Bucket is the bucket name.
	Bucket string
	// Prefix is prepended to every object key (default "mlca/").
	Prefix string
	// Region signs requests (default "us-east-1").
	Region string
	// AccessKey/SecretKey are the SigV4 credentials; both empty means
	// unsigned requests (anonymous endpoints, tests).
	AccessKey, SecretKey string
	// Insecure permits credentials over plaintext HTTP.
	Insecure bool
	// HTTPClient issues requests; nil means http.DefaultClient.
	HTTPClient *http.Client
	// Logf receives transfer events; nil means silent.
	Logf func(format string, args ...any)
}

// S3 is the remote backend: a minimal S3 REST client speaking exactly
// the object subset the store needs — GET/PUT/HEAD/DELETE on object
// keys and ListObjectsV2 — with SigV4 request signing and ETag
// verification on upload. It deliberately does not implement
// store.Resolver: a remote stream has no local path until a verifying
// tier promotes it, and the type system holds that line.
type S3 struct {
	cfg S3Config
}

var _ Backend = (*S3)(nil)

// NewS3 validates the configuration; it refuses credentials over a
// plaintext endpoint unless Insecure.
func NewS3(cfg S3Config) (*S3, error) {
	if cfg.Endpoint == "" {
		return nil, fmt.Errorf("backend: s3: endpoint required")
	}
	u, err := url.Parse(cfg.Endpoint)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") {
		return nil, fmt.Errorf("backend: s3: endpoint %q: want http(s) URL", cfg.Endpoint)
	}
	if cfg.Bucket == "" {
		return nil, fmt.Errorf("backend: s3: bucket required")
	}
	if strings.ContainsAny(cfg.Bucket, "/?#") {
		return nil, fmt.Errorf("backend: s3: bucket %q: must be a bare name", cfg.Bucket)
	}
	if (cfg.AccessKey != "") != (cfg.SecretKey != "") {
		return nil, fmt.Errorf("backend: s3: access key and secret key must be set together")
	}
	if cfg.SecretKey != "" && u.Scheme == "http" && !cfg.Insecure {
		return nil, fmt.Errorf("backend: s3: refusing credentials over plaintext %s (pass insecure to allow)", cfg.Endpoint)
	}
	if cfg.Prefix == "" {
		cfg.Prefix = "mlca/"
	}
	if !strings.HasSuffix(cfg.Prefix, "/") {
		cfg.Prefix += "/"
	}
	if cfg.Region == "" {
		cfg.Region = "us-east-1"
	}
	return &S3{cfg: cfg}, nil
}

func (b *S3) logf(format string, args ...any) {
	if b.cfg.Logf != nil {
		b.cfg.Logf(format, args...)
	}
}

// ObjectKey is the bucket key for digest d under prefix: the bare hex
// name plus the artifact suffix, so a bucket listing reads like a store
// directory.
func ObjectKey(prefix string, d store.Digest) string {
	return prefix + d.Hex() + ".mlca"
}

// ParseObjectKey inverts ObjectKey, strictly: exact prefix, exactly the
// canonical lowercase-hex name, exact suffix. Anything else in the
// bucket (other applications' keys, junk, aliased spellings) is not an
// object of ours. This is the trust boundary a bucket listing crosses.
func ParseObjectKey(prefix, key string) (store.Digest, bool) {
	rest, ok := strings.CutPrefix(key, prefix)
	if !ok {
		return store.Digest{}, false
	}
	hexName, ok := strings.CutSuffix(rest, ".mlca")
	if !ok || strings.ContainsRune(hexName, '/') {
		return store.Digest{}, false
	}
	d, err := store.ParseDigest(store.DigestPrefix + hexName)
	if err != nil {
		return store.Digest{}, false
	}
	return d, true
}

// objectURL is the path-style URL for digest d.
func (b *S3) objectURL(d store.Digest) string {
	return strings.TrimSuffix(b.cfg.Endpoint, "/") + "/" + b.cfg.Bucket + "/" + ObjectKey(b.cfg.Prefix, d)
}

func (b *S3) httpClient() *http.Client {
	if b.cfg.HTTPClient != nil {
		return b.cfg.HTTPClient
	}
	return http.DefaultClient
}

// sign signs req when credentials are configured.
func (b *S3) sign(req *http.Request, payloadHash string) {
	if b.cfg.AccessKey == "" {
		return
	}
	signV4(req, b.cfg.AccessKey, b.cfg.SecretKey, b.cfg.Region, payloadHash, time.Now())
}

// s3Policy bounds every bucket operation's requests.
var s3Policy = retry.Policy{Attempts: 5, Base: 50 * time.Millisecond}

// do sends one signed request for op on d. A transport fault comes back
// as a retryable error naming both.
func (b *S3) do(req *http.Request, payloadHash, op string, d store.Digest) (*http.Response, error) {
	b.sign(req, payloadHash)
	resp, err := b.httpClient().Do(req)
	if err != nil {
		err = fmt.Errorf("backend: s3: %s %s: %w", op, d, err)
		b.logf("%v", err)
	}
	return resp, err
}

// s3Error drains resp and renders a uniform error: a 404 wraps
// os.ErrNotExist, and a status retry.Transient does not list is
// permanent (a 403 will not sign itself on attempt two).
func (b *S3) s3Error(op string, d store.Digest, resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
	text := fmt.Sprintf("backend: s3: %s %s: %s", op, d, resp.Status)
	if m := strings.TrimSpace(string(msg)); m != "" {
		text += ": " + m
	}
	err := errors.New(text)
	switch {
	case resp.StatusCode == http.StatusNotFound:
		return retry.Permanent(fmt.Errorf("%w: %w", err, os.ErrNotExist))
	case !retry.Transient(resp.StatusCode):
		return retry.Permanent(err)
	}
	b.logf("%v", err)
	return err
}

// Get implements Backend. The returned stream is NOT verified — the
// transport can tear it after the 200 — so consumers hash before
// trusting (Tiered promotion). Retries cover the request
// itself; a mid-stream fault surfaces to the consumer's verify-retry.
func (b *S3) Get(ctx context.Context, d store.Digest) (io.ReadCloser, error) {
	var body io.ReadCloser
	err := retry.Do(ctx, s3Policy, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.objectURL(d), nil)
		if err != nil {
			return retry.Permanent(err)
		}
		resp, err := b.do(req, unsignedPayload, "get", d)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			defer resp.Body.Close()
			return b.s3Error("get", d, resp)
		}
		body = resp.Body
		return nil
	})
	if err != nil {
		return nil, err
	}
	return body, nil
}

// Put implements Backend. The signed x-amz-content-sha256 is the
// object's digest hex — content addressing means the payload hash is
// known before the first byte moves, so the body is covered by the
// signature without a second read. The response ETag (MD5 for simple
// uploads) is verified against an MD5 computed while streaming; a
// mismatch means the endpoint stored something else, and the upload is
// retried rather than trusted.
//
// Retries need to re-read the body, so a non-seekable r of unknown size
// spools through a temp file first.
func (b *S3) Put(ctx context.Context, d store.Digest, r io.Reader, size int64) (int64, error) {
	seeker, ok := r.(io.ReadSeeker)
	if !ok || size < 0 {
		tmp, err := os.CreateTemp("", "s3put-*.tmp")
		if err != nil {
			return 0, fmt.Errorf("backend: s3: %w", err)
		}
		defer os.Remove(tmp.Name())
		defer tmp.Close()
		n, err := io.Copy(tmp, r)
		if err != nil {
			return n, fmt.Errorf("backend: s3: spooling %s: %w", d, err)
		}
		seeker, size = tmp, n
	}

	var n int64
	err := retry.Do(ctx, s3Policy, func() error {
		if _, err := seeker.Seek(0, io.SeekStart); err != nil {
			return retry.Permanent(err)
		}
		md5sum := md5.New()
		req, err := http.NewRequestWithContext(ctx, http.MethodPut, b.objectURL(d),
			io.TeeReader(io.LimitReader(seeker, size), md5sum))
		if err != nil {
			return retry.Permanent(err)
		}
		req.ContentLength = size
		req.Header.Set("Content-Type", "application/octet-stream")
		resp, err := b.do(req, d.Hex(), "put", d)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
			return b.s3Error("put", d, resp)
		}
		if etag := strings.Trim(resp.Header.Get("ETag"), `"`); etag != "" {
			if want := hex.EncodeToString(md5sum.Sum(nil)); etag != want {
				err := fmt.Errorf("backend: s3: put %s: endpoint ETag %s, body md5 %s: %w",
					d, etag, want, store.ErrDigestMismatch)
				b.logf("%v", err)
				return err
			}
		}
		n = size
		return nil
	})
	return n, err
}

// Head implements Backend.
func (b *S3) Head(ctx context.Context, d store.Digest) (ObjectInfo, error) {
	var info ObjectInfo
	err := retry.Do(ctx, s3Policy, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodHead, b.objectURL(d), nil)
		if err != nil {
			return retry.Permanent(err)
		}
		resp, err := b.do(req, unsignedPayload, "head", d)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return b.s3Error("head", d, resp)
		}
		info = ObjectInfo{Digest: d, Size: resp.ContentLength}
		if t, err := http.ParseTime(resp.Header.Get("Last-Modified")); err == nil {
			info.ModTime = t
		}
		return nil
	})
	return info, err
}

// listBucketResult is the ListObjectsV2 response subset we consume.
type listBucketResult struct {
	XMLName               xml.Name `xml:"ListBucketResult"`
	IsTruncated           bool     `xml:"IsTruncated"`
	NextContinuationToken string   `xml:"NextContinuationToken"`
	Contents              []struct {
		Key          string `xml:"Key"`
		Size         int64  `xml:"Size"`
		LastModified string `xml:"LastModified"`
	} `xml:"Contents"`
}

// List implements Backend via ListObjectsV2 with continuation-token
// pagination. Keys that do not parse as canonical object names are
// skipped — a shared bucket can hold other tenants' keys.
func (b *S3) List(ctx context.Context, fn func(ObjectInfo) error) error {
	token := ""
	for {
		var page listBucketResult
		err := retry.Do(ctx, s3Policy, func() error {
			q := url.Values{}
			q.Set("list-type", "2")
			q.Set("prefix", b.cfg.Prefix)
			if token != "" {
				q.Set("continuation-token", token)
			}
			u := strings.TrimSuffix(b.cfg.Endpoint, "/") + "/" + b.cfg.Bucket + "?" + q.Encode()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
			if err != nil {
				return retry.Permanent(err)
			}
			resp, err := b.do(req, unsignedPayload, "list", store.Digest{})
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return b.s3Error("list", store.Digest{}, resp)
			}
			page = listBucketResult{}
			if err := xml.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&page); err != nil {
				return fmt.Errorf("backend: s3: list: %w", err)
			}
			return nil
		})
		if err != nil {
			return err
		}
		for _, obj := range page.Contents {
			d, ok := ParseObjectKey(b.cfg.Prefix, obj.Key)
			if !ok {
				continue
			}
			info := ObjectInfo{Digest: d, Size: obj.Size}
			if t, err := time.Parse(time.RFC3339, obj.LastModified); err == nil {
				info.ModTime = t
			}
			if err := fn(info); err != nil {
				return err
			}
		}
		if !page.IsTruncated || page.NextContinuationToken == "" {
			return nil
		}
		token = page.NextContinuationToken
	}
}

// Delete implements Backend. S3 DELETE is idempotent (204 for absent
// keys), but the Backend contract distinguishes reclaimed from already
// gone, so Delete HEADs first.
func (b *S3) Delete(ctx context.Context, d store.Digest) error {
	if _, err := b.Head(ctx, d); err != nil {
		return err
	}
	return retry.Do(ctx, s3Policy, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodDelete, b.objectURL(d), nil)
		if err != nil {
			return retry.Permanent(err)
		}
		resp, err := b.do(req, unsignedPayload, "delete", d)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
			return b.s3Error("delete", d, resp)
		}
		return nil
	})
}
