package trace

import (
	"fmt"
	"io"
	"sync/atomic"
)

// Arena is an immutable in-memory trace, materialized exactly once from any
// Stream and shared read-only by any number of concurrent simulations. It
// is the decode-once backbone of the sweep engine: grid points read the
// same backing array through independent Cursors instead of re-generating
// or re-decoding the trace per point.
//
// An Arena must not be mutated after construction; Cursors assume the
// backing array never changes.
type Arena struct {
	refs []Ref
	// cursors counts Cursor calls — a cheap pass-count proxy used by tests
	// asserting the one-pass planner's trace-pass budget.
	cursors atomic.Int64
}

// Materialize drains s into a new Arena. It returns any error other than
// io.EOF; the partially materialized prefix is discarded on error.
func Materialize(s Stream) (*Arena, error) {
	if a, ok := s.(*Cursor); ok {
		// A cursor is already arena-backed: share the backing array from
		// the cursor's current position instead of copying it.
		return &Arena{refs: a.refs[a.pos:]}, nil
	}
	t, err := Collect(s, 0)
	if err != nil {
		return nil, fmt.Errorf("trace: materialize: %w", err)
	}
	return NewArena(t), nil
}

// NewArena wraps an existing in-memory trace without copying. The caller
// must not modify refs afterwards.
func NewArena(refs []Ref) *Arena { return &Arena{refs: refs} }

// Len returns the number of references in the arena.
func (a *Arena) Len() int { return len(a.refs) }

// Refs returns the arena's backing slice. It is shared, read-only data:
// callers must not modify it.
func (a *Arena) Refs() []Ref { return a.refs }

// Cursor returns a new independent reader positioned at the start of the
// arena. Cursors are cheap (no copying) and any number may read the same
// arena concurrently; each individual Cursor is not safe for concurrent
// use.
func (a *Arena) Cursor() *Cursor {
	a.cursors.Add(1)
	return &Cursor{refs: a.refs}
}

// Cursors returns how many Cursors have been opened on the arena — an
// upper bound on the number of passes readers have made over the trace.
func (a *Arena) Cursors() int64 { return a.cursors.Load() }

// Cursor reads an Arena sequentially. It implements Stream (Next) for
// every reference-at-a-time consumer; ReadRefs copies a batch out, and
// Chunk, which the CPU issue loop uses, reads the arena in place without
// copying.
type Cursor struct {
	refs []Ref
	pos  int
}

// Next returns the next reference, implementing Stream.
func (c *Cursor) Next() (Ref, error) {
	if c.pos >= len(c.refs) {
		return Ref{}, io.EOF
	}
	r := c.refs[c.pos]
	c.pos++
	return r, nil
}

// ReadRefs copies the next references into buf and returns how many it
// copied. It returns io.EOF (with n == 0) once the arena is exhausted.
func (c *Cursor) ReadRefs(buf []Ref) (int, error) {
	if c.pos >= len(c.refs) {
		return 0, io.EOF
	}
	n := copy(buf, c.refs[c.pos:])
	c.pos += n
	return n, nil
}

// Chunk returns up to max of the next references without copying them:
// the slice aliases the arena's backing array, with its capacity clipped
// to its length so an append reallocates instead of writing past it. The
// references are read-only and stay valid for the arena's lifetime (for a
// mapped Artifact, until Close). Chunk returns io.EOF (with no references)
// once the arena is exhausted; max must be positive.
func (c *Cursor) Chunk(max int) ([]Ref, error) {
	if max <= 0 {
		return nil, fmt.Errorf("trace: chunk size %d must be positive", max)
	}
	if c.pos >= len(c.refs) {
		return nil, io.EOF
	}
	end := len(c.refs)
	if max < end-c.pos {
		end = c.pos + max
	}
	out := c.refs[c.pos:end:end]
	c.pos = end
	return out, nil
}

// Reset rewinds the cursor to the start of the arena.
func (c *Cursor) Reset() { c.pos = 0 }
