package trace

import (
	"errors"
	"fmt"
	"io"
	"testing"
)

// errAfter yields n references, then fails with err forever.
func errAfter(n int, err error) Stream {
	i := 0
	return Func(func() (Ref, error) {
		if i >= n {
			return Ref{}, err
		}
		i++
		return Ref{Kind: Load, Addr: uint64(4 * i)}, nil
	})
}

func TestRoundRobinSurfacesStreamError(t *testing.T) {
	readErr := errors.New("read failure")
	s := RoundRobin(2,
		errAfter(100, nil), // healthy: never errors within this test
		errAfter(3, readErr),
	)
	n := 0
	for {
		_, err := s.Next()
		if err != nil {
			if !errors.Is(err, readErr) || errors.Is(err, io.EOF) {
				t.Fatalf("err = %v, want wrapped %v (not EOF)", err, readErr)
			}
			break
		}
		n++
		if n > 50 {
			t.Fatal("erroring stream treated as exhausted; round-robin never surfaced the error")
		}
	}
	// Quanta of 2: s0 yields 2, s1 yields 2, s0 yields 2, then s1 errors
	// on its third reference.
	if n != 7 {
		t.Errorf("refs before error = %d, want 7", n)
	}
}

func TestRoundRobinRetiresWrappedEOF(t *testing.T) {
	wrapped := fmt.Errorf("decoder: %w", io.EOF)
	s := RoundRobin(1, errAfter(2, wrapped), errAfter(3, wrapped))
	refs, err := Collect(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 5 {
		t.Errorf("collected %d refs, want 5", len(refs))
	}
}

func TestRoundRobinErrorNamesStream(t *testing.T) {
	readErr := errors.New("boom")
	s := RoundRobin(1, errAfter(10, nil), errAfter(0, readErr))
	var err error
	for err == nil {
		_, err = s.Next()
	}
	if got := err.Error(); got != "trace: round-robin stream 1: boom" {
		t.Errorf("error = %q, want stream index 1 named", got)
	}
}
