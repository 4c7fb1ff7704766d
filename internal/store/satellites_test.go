package store

import (
	"bytes"
	"errors"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// blockingReader hands out its payload only after release is closed,
// proving that a Put consuming it holds no lock another digest needs.
type blockingReader struct {
	payload []byte
	release <-chan struct{}
	read    bool
}

func (r *blockingReader) Read(p []byte) (int, error) {
	if !r.read {
		<-r.release
		r.read = true
		n := copy(p, r.payload)
		return n, nil
	}
	return 0, io.EOF
}

// TestFileStorePutConcurrentDistinctDigests commits two distinct digests
// at once: digest A's upload stalls mid-body until digest B's commit
// finishes. Under the old store-wide Put mutex this deadlocks (A holds
// the lock while blocked; B can never run to release A); with per-digest
// locks both commit.
func TestFileStorePutConcurrentDistinctDigests(t *testing.T) {
	s, err := OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	aBytes := []byte("object A: stalls until B lands")
	bBytes := []byte("object B: must not wait for A")
	dA, dB := DigestBytes(aBytes), DigestBytes(bBytes)

	bDone := make(chan struct{})
	aDone := make(chan error, 1)
	go func() {
		_, err := s.Put(&blockingReader{payload: aBytes, release: bDone}, dA)
		aDone <- err
	}()
	// Wait until A's Put is actually staging (holding its digest lock).
	deadline := time.Now().Add(5 * time.Second)
	for {
		ents, _ := os.ReadDir(s.dir)
		staging := false
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), ".tmp") {
				staging = true
			}
		}
		if staging {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Put A never started staging")
		}
		time.Sleep(time.Millisecond)
	}

	done := make(chan error, 1)
	go func() {
		_, err := s.Put(bytes.NewReader(bBytes), dB)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Put B: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Put B deadlocked behind Put A's in-flight upload: Put locks are not per-digest")
	}
	close(bDone)
	if err := <-aDone; err != nil {
		t.Fatalf("Put A: %v", err)
	}
	for _, d := range []Digest{dA, dB} {
		p, err := s.Resolve(d)
		if err != nil {
			t.Fatalf("resolve %s: %v", d, err)
		}
		d2, _, err := DigestFile(p)
		if err != nil || d2 != d {
			t.Fatalf("committed object %s fails verification: %v", d, err)
		}
	}
}

// TestFileStorePutSameDigestSerializes pins the complementary property:
// two racing uploads of one digest commit exactly one object and both
// return cleanly.
func TestFileStorePutSameDigestSerializes(t *testing.T) {
	s, err := OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("the one object")
	d := DigestBytes(payload)
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := s.Put(bytes.NewReader(payload), d)
			errs <- err
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	list, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0] != d {
		t.Fatalf("want exactly one committed object, got %v", list)
	}
}

func TestFileStoreDeleteAndStat(t *testing.T) {
	s, err := OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("to be reclaimed")
	d := DigestBytes(payload)
	if _, err := s.Put(bytes.NewReader(payload), d); err != nil {
		t.Fatal(err)
	}
	size, _, err := s.Stat(d)
	if err != nil || size != int64(len(payload)) {
		t.Fatalf("Stat: %d, %v", size, err)
	}
	if err := s.Delete(d); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(d); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("deleted object still resolves: %v", err)
	}
	if err := s.Delete(d); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("double delete: want ErrNotExist, got %v", err)
	}
}
