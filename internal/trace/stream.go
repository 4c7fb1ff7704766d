package trace

import (
	"errors"
	"fmt"
	"io"
)

// Limit returns a stream that yields at most n references from s.
func Limit(s Stream, n int64) Stream { return &limitStream{s: s, left: n} }

type limitStream struct {
	s    Stream
	left int64
}

func (l *limitStream) Next() (Ref, error) {
	if l.left <= 0 {
		return Ref{}, io.EOF
	}
	l.left--
	return l.s.Next()
}

// RoundRobin interleaves streams in fixed-size quanta: it yields quantum
// references from stream 0, then quantum from stream 1, and so on, skipping
// exhausted streams. It models deterministic multiprogramming time-slicing.
// RoundRobin panics if quantum < 1.
func RoundRobin(quantum int, streams ...Stream) Stream {
	if quantum < 1 {
		panic(fmt.Sprintf("trace: RoundRobin quantum %d < 1", quantum))
	}
	idx := make([]int, len(streams))
	for i := range idx {
		idx[i] = i
	}
	return &rrStream{streams: streams, idx: idx, quantum: quantum, left: quantum}
}

type rrStream struct {
	streams []Stream
	idx     []int // original index of each live stream, for error attribution
	quantum int
	cur     int
	left    int
}

func (r *rrStream) Next() (Ref, error) {
	for len(r.streams) > 0 {
		if r.left == 0 {
			r.advance()
		}
		ref, err := r.streams[r.cur].Next()
		if err == nil {
			r.left--
			return ref, nil
		}
		// Exhaustion (including a wrapped io.EOF) retires the stream; a
		// real error is surfaced to the caller, never treated as the
		// stream merely ending.
		if errors.Is(err, io.EOF) {
			r.remove(r.cur)
			continue
		}
		return Ref{}, fmt.Errorf("trace: round-robin stream %d: %w", r.idx[r.cur], err)
	}
	return Ref{}, io.EOF
}

func (r *rrStream) advance() {
	r.cur = (r.cur + 1) % len(r.streams)
	r.left = r.quantum
}

func (r *rrStream) remove(i int) {
	r.streams = append(r.streams[:i], r.streams[i+1:]...)
	r.idx = append(r.idx[:i], r.idx[i+1:]...)
	if len(r.streams) == 0 {
		return
	}
	r.cur = i % len(r.streams)
	r.left = r.quantum
}

// Func adapts a function to the Stream interface.
type Func func() (Ref, error)

// Next calls f.
func (f Func) Next() (Ref, error) { return f() }
