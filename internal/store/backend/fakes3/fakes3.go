// Package fakes3 is an in-process S3-compatible object server for tests
// and CI: path-style object GET/PUT/HEAD/DELETE, ListObjectsV2 with
// continuation tokens, SigV4 signature verification against configured
// credentials, and — the point — programmable fault injection (500s,
// torn bodies, slow reads, corrupted ETags) so the store's verify-and-
// retry paths are exercised end-to-end against a real HTTP surface
// rather than mocked readers. A /fakes3/stats endpoint exposes request
// counters as JSON, which is how the CI smoke test asserts a warm
// second run stays remote-quiet.
package fakes3

import (
	"crypto/md5"
	"encoding/hex"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"mlcache/internal/store/backend"
)

// Stats counts requests by operation, plus faults injected.
type Stats struct {
	Gets, Puts, Heads, Lists, Deletes int64
	// Faults counts responses deliberately sabotaged.
	Faults int64
	// AuthFailures counts rejected signatures.
	AuthFailures int64
}

// Faults is the programmable sabotage. Counted fields arm the next N
// matching requests; each firing decrements the counter, so tests can
// say "tear exactly the next two GET bodies".
type Faults struct {
	// FailGets / FailPuts answer 500 instead of serving.
	FailGets, FailPuts int
	// TornGets declare the full Content-Length but send only half the
	// body before cutting the connection.
	TornGets int
	// CorruptGets flip one byte mid-body with a correct Content-Length —
	// only end-to-end digest verification can catch this one.
	CorruptGets int
	// WrongETags answer PUTs with an ETag that is not the body's MD5.
	WrongETags int
	// SlowReads throttles GET bodies to roughly this many bytes per
	// second (0 = full speed). Uncounted: applies while set.
	SlowReadBPS int64
}

// object is one stored blob.
type object struct {
	data    []byte
	modTime time.Time
}

// Server implements http.Handler. Zero value is unusable; use New.
type Server struct {
	bucket string
	// Credentials; empty AccessKey disables signature checks.
	accessKey, secretKey, region string

	mu      sync.Mutex
	objects map[string]object
	faults  Faults
	stats   Stats
	clock   time.Time // advances per PUT so ModTimes are distinct
}

// Config configures New.
type Config struct {
	Bucket string
	// AccessKey/SecretKey arm SigV4 verification; both empty disables.
	AccessKey, SecretKey string
	// Region defaults to us-east-1.
	Region string
}

// New builds an empty fake bucket.
func New(cfg Config) *Server {
	if cfg.Bucket == "" {
		cfg.Bucket = "test"
	}
	if cfg.Region == "" {
		cfg.Region = "us-east-1"
	}
	return &Server{
		bucket:    cfg.Bucket,
		accessKey: cfg.AccessKey,
		secretKey: cfg.SecretKey,
		region:    cfg.Region,
		objects:   map[string]object{},
		clock:     time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
	}
}

// SetFaults replaces the armed fault counters.
func (s *Server) SetFaults(f Faults) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults = f
}

// Stats snapshots the request counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Keys returns the stored keys, sorted.
func (s *Server) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.objects))
	for k := range s.objects {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// PutObject seeds a blob directly (no HTTP), for test setup.
func (s *Server) PutObject(key string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clock = s.clock.Add(time.Second)
	s.objects[key] = object{data: append([]byte(nil), data...), modTime: s.clock}
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/fakes3/stats" {
		w.Header().Set("Content-Type", "application/json")
		st := s.Stats()
		json.NewEncoder(w).Encode(st)
		return
	}
	if s.accessKey != "" && !s.verify(r) {
		s.mu.Lock()
		s.stats.AuthFailures++
		s.mu.Unlock()
		http.Error(w, s3XMLError("SignatureDoesNotMatch"), http.StatusForbidden)
		return
	}
	rest, ok := strings.CutPrefix(r.URL.Path, "/"+s.bucket)
	if !ok {
		http.Error(w, s3XMLError("NoSuchBucket"), http.StatusNotFound)
		return
	}
	key := strings.TrimPrefix(rest, "/")
	if key == "" {
		if r.Method == http.MethodGet && r.URL.Query().Get("list-type") == "2" {
			s.list(w, r)
			return
		}
		http.Error(w, s3XMLError("MethodNotAllowed"), http.StatusMethodNotAllowed)
		return
	}
	switch r.Method {
	case http.MethodGet:
		s.get(w, r, key)
	case http.MethodHead:
		s.head(w, key)
	case http.MethodPut:
		s.put(w, r, key)
	case http.MethodDelete:
		s.delete(w, key)
	default:
		http.Error(w, s3XMLError("MethodNotAllowed"), http.StatusMethodNotAllowed)
	}
}

func (s *Server) get(w http.ResponseWriter, r *http.Request, key string) {
	s.mu.Lock()
	s.stats.Gets++
	o, ok := s.objects[key]
	fail, torn, corrupt := false, false, false
	if s.faults.FailGets > 0 {
		s.faults.FailGets--
		s.stats.Faults++
		fail = true
	} else if s.faults.TornGets > 0 && ok {
		s.faults.TornGets--
		s.stats.Faults++
		torn = true
	} else if s.faults.CorruptGets > 0 && ok {
		s.faults.CorruptGets--
		s.stats.Faults++
		corrupt = true
	}
	slowBPS := s.faults.SlowReadBPS
	s.mu.Unlock()

	if fail {
		http.Error(w, s3XMLError("InternalError"), http.StatusInternalServerError)
		return
	}
	if !ok {
		http.Error(w, s3XMLError("NoSuchKey"), http.StatusNotFound)
		return
	}
	data := o.data
	if corrupt {
		data = append([]byte(nil), data...)
		data[len(data)/2] ^= 0x01
	}
	w.Header().Set("Content-Length", fmt.Sprint(len(data)))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Last-Modified", o.modTime.UTC().Format(http.TimeFormat))
	w.WriteHeader(http.StatusOK)
	if torn {
		// Declared full length, deliver half: the client sees an
		// unexpected EOF mid-body. Only digest verification downstream
		// turns this into a retry instead of a corrupt object.
		w.Write(data[:len(data)/2])
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	}
	if slowBPS > 0 {
		writeThrottled(w, data, slowBPS)
		return
	}
	w.Write(data)
}

func writeThrottled(w http.ResponseWriter, data []byte, bps int64) {
	const chunk = 8 << 10
	start := time.Now()
	var sent int64
	for off := 0; off < len(data); off += chunk {
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		if _, err := w.Write(data[off:end]); err != nil {
			return
		}
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		sent += int64(end - off)
		ahead := time.Duration(float64(sent)/float64(bps)*float64(time.Second)) - time.Since(start)
		if ahead > 0 {
			time.Sleep(ahead)
		}
	}
}

func (s *Server) head(w http.ResponseWriter, key string) {
	s.mu.Lock()
	s.stats.Heads++
	o, ok := s.objects[key]
	s.mu.Unlock()
	if !ok {
		http.Error(w, "", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Length", fmt.Sprint(len(o.data)))
	w.Header().Set("Last-Modified", o.modTime.UTC().Format(http.TimeFormat))
	w.WriteHeader(http.StatusOK)
}

func (s *Server) put(w http.ResponseWriter, r *http.Request, key string) {
	s.mu.Lock()
	s.stats.Puts++
	fail, wrongETag := false, false
	if s.faults.FailPuts > 0 {
		s.faults.FailPuts--
		s.stats.Faults++
		fail = true
	} else if s.faults.WrongETags > 0 {
		s.faults.WrongETags--
		s.stats.Faults++
		wrongETag = true
	}
	s.mu.Unlock()

	if fail {
		http.Error(w, s3XMLError("InternalError"), http.StatusInternalServerError)
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, 1<<30))
	if err != nil {
		http.Error(w, s3XMLError("IncompleteBody"), http.StatusBadRequest)
		return
	}
	sum := md5.Sum(data)
	etag := hex.EncodeToString(sum[:])
	if wrongETag {
		// Pretend we stored different bytes: the client's ETag check must
		// refuse the acknowledgement. Nothing is stored, matching a
		// backend that corrupted the object on ingest.
		etag = strings.Repeat("0", 32)
	} else {
		s.mu.Lock()
		s.clock = s.clock.Add(time.Second)
		s.objects[key] = object{data: data, modTime: s.clock}
		s.mu.Unlock()
	}
	w.Header().Set("ETag", `"`+etag+`"`)
	w.WriteHeader(http.StatusOK)
}

func (s *Server) delete(w http.ResponseWriter, key string) {
	s.mu.Lock()
	s.stats.Deletes++
	delete(s.objects, key)
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// listPage caps ListObjectsV2 pages so pagination is exercised by any
// listing of more than a handful of objects.
const listPage = 3

func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.stats.Lists++
	keys := make([]string, 0, len(s.objects))
	prefix := r.URL.Query().Get("prefix")
	for k := range s.objects {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	start := 0
	if tok := r.URL.Query().Get("continuation-token"); tok != "" {
		// Token is the last key of the previous page.
		for i, k := range keys {
			if k > tok {
				start = i
				break
			}
			start = i + 1
		}
	}
	type content struct {
		Key          string `xml:"Key"`
		Size         int64  `xml:"Size"`
		LastModified string `xml:"LastModified"`
	}
	type result struct {
		XMLName               xml.Name  `xml:"ListBucketResult"`
		IsTruncated           bool      `xml:"IsTruncated"`
		NextContinuationToken string    `xml:"NextContinuationToken,omitempty"`
		Contents              []content `xml:"Contents"`
	}
	res := result{}
	end := start + listPage
	if end > len(keys) {
		end = len(keys)
	}
	for _, k := range keys[start:end] {
		o := s.objects[k]
		res.Contents = append(res.Contents, content{
			Key: k, Size: int64(len(o.data)),
			LastModified: o.modTime.UTC().Format(time.RFC3339),
		})
	}
	if end < len(keys) {
		res.IsTruncated = true
		res.NextContinuationToken = keys[end-1]
	}
	s.mu.Unlock()

	w.Header().Set("Content-Type", "application/xml")
	xml.NewEncoder(w).Encode(res)
}

func s3XMLError(code string) string {
	return "<Error><Code>" + code + "</Code></Error>"
}

// verify checks the request's SigV4 signature against our credentials.
func (s *Server) verify(r *http.Request) bool {
	return backend.VerifyV4(r, s.accessKey, s.secretKey, s.region)
}
