package store

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"mlcache/internal/trace"
)

// PathArtifacts is the URL prefix the artifact endpoints live under, on
// the coordinator and on mlcserve origins alike:
//
//	GET/HEAD {PathArtifacts}{digest} — download (Range/resume supported)
//	PUT      {PathArtifacts}{digest} — publish (when uploads are enabled)
const PathArtifacts = "/artifacts/"

// CRCHeader carries the artifact header's CRC-32C on GET/HEAD responses,
// so a client can check it against a job spec's artifact_crc32c before
// downloading the object.
const CRCHeader = "X-Artifact-Crc32c"

// BlobSink accepts verified object uploads: Put streams r in as object
// d, verifying the hash before commit and returning the bytes consumed.
// FileStore implements it directly; tiered backends implement it with a
// local commit plus a durably acknowledged remote upload.
type BlobSink interface {
	Put(r io.Reader, d Digest) (int64, error)
}

// Handler serves the artifact transfer endpoints. Source resolves
// digests for download; Uploads, when non-nil, additionally accepts PUT
// publishes into a store. Range requests, If-Range, and HEAD come
// free from http.ServeContent, which is what makes worker-side resume a
// header rather than a protocol.
type Handler struct {
	Source  Resolver
	Uploads BlobSink
	// Logf receives transfer events; nil means silent.
	Logf func(format string, args ...any)
}

func (h *Handler) logf(format string, args ...any) {
	if h.Logf != nil {
		h.Logf(format, args...)
	}
}

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rest, ok := strings.CutPrefix(r.URL.Path, PathArtifacts)
	if !ok || rest == "" || strings.ContainsRune(rest, '/') {
		http.Error(w, "want "+PathArtifacts+"{digest}", http.StatusNotFound)
		return
	}
	d, err := ParseDigest(rest)
	if err != nil {
		// The strict parser is the trust boundary: nothing that is not a
		// canonical digest reaches the filesystem layer, so a hostile path
		// ("../", uppercase aliases, junk) dies here.
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		h.serveObject(w, r, d)
	case http.MethodPut:
		h.putObject(w, r, d)
	default:
		w.Header().Set("Allow", "GET, HEAD, PUT")
		http.Error(w, "GET, HEAD, or PUT", http.StatusMethodNotAllowed)
	}
}

func (h *Handler) serveObject(w http.ResponseWriter, r *http.Request, d Digest) {
	if h.Source == nil {
		http.Error(w, "no artifact source configured", http.StatusNotFound)
		return
	}
	path, err := h.Source.Resolve(d)
	if errors.Is(err, os.ErrNotExist) {
		http.Error(w, fmt.Sprintf("artifact %s not found", d), http.StatusNotFound)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if crc, err := trace.ArtifactChecksum(path); err == nil {
		w.Header().Set(CRCHeader, fmt.Sprintf("%08x", crc))
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	// The name is the content: a committed object never changes, so any
	// cached/resumed range is valid regardless of timestamps.
	http.ServeContent(w, r, "", st.ModTime(), f)
}

func (h *Handler) putObject(w http.ResponseWriter, r *http.Request, d Digest) {
	if h.Uploads == nil {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "uploads not enabled on this endpoint", http.StatusMethodNotAllowed)
		return
	}
	n, err := h.Uploads.Put(r.Body, d)
	if errors.Is(err, ErrDigestMismatch) {
		h.logf("store: rejected upload for %s: %v", d, err)
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	h.logf("store: accepted %s (%d bytes)", d, n)
	w.WriteHeader(http.StatusCreated)
}
