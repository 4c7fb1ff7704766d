// Package trace defines the memory-reference trace representation shared by
// every component of the simulator: the CPU model consumes traces, the
// synthetic workload generators produce them, and the codecs in this package
// read and write them in a Dinero-style text form and a compact binary form.
//
// A trace is a stream of references. Each reference is an instruction fetch,
// a data load, or a data store, tagged with a byte address and the process
// that issued it. Following the paper (Przybylski et al., ISCA '89, §2),
// miss-ratio statistics downstream treat loads and instruction fetches as
// "reads" and stores as "writes".
package trace

import (
	"errors"
	"fmt"
	"io"
)

// Kind classifies a memory reference.
type Kind uint8

// Reference kinds. IFetch and Load are "reads" in the paper's terminology;
// Store is a "write".
const (
	IFetch Kind = iota // instruction fetch
	Load               // data read
	Store              // data write
)

var kindNames = [...]string{"ifetch", "load", "store"}

// String returns the lower-case name of the kind ("ifetch", "load",
// "store"), or a formatted unknown marker for out-of-range values.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsRead reports whether the kind counts as a read (instruction fetch or
// load) for miss-ratio purposes.
func (k Kind) IsRead() bool { return k == IFetch || k == Load }

// Valid reports whether k is one of the three defined kinds.
func (k Kind) Valid() bool { return k <= Store }

// ParseKind converts a kind name as produced by Kind.String back to a Kind.
func ParseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("trace: unknown reference kind %q", s)
}

// Ref is a single memory reference.
type Ref struct {
	Addr uint64 // byte address
	PID  uint16 // issuing process, for multiprogramming traces
	Kind Kind
}

// String renders the reference in the text-codec line format.
func (r Ref) String() string {
	return fmt.Sprintf("%s %#x %d", r.Kind, r.Addr, r.PID)
}

// Stream is a source of references. Next returns io.EOF after the final
// reference. Implementations need not be safe for concurrent use.
type Stream interface {
	Next() (Ref, error)
}

// ErrCorrupt is wrapped by codec errors that indicate malformed input.
var ErrCorrupt = errors.New("trace: corrupt input")

// Trace is an in-memory sequence of references.
type Trace []Ref

// Stream returns a Stream that yields the trace's references in order.
func (t Trace) Stream() Stream { return &sliceStream{refs: t} }

type sliceStream struct {
	refs []Ref
	pos  int
}

func (s *sliceStream) Next() (Ref, error) {
	if s.pos >= len(s.refs) {
		return Ref{}, io.EOF
	}
	r := s.refs[s.pos]
	s.pos++
	return r, nil
}

// Collect drains a stream into memory, up to max references. A max of 0
// means no limit. Collect returns the references read so far alongside any
// error other than io.EOF.
func Collect(s Stream, max int) (Trace, error) {
	var out Trace
	for max == 0 || len(out) < max {
		r, err := s.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Counts tallies the composition of a trace.
type Counts struct {
	IFetch int64
	Load   int64
	Store  int64
	// Skipped counts corrupt records dropped by a Lenient reader feeding
	// the count; zero for strict streams.
	Skipped int64
}

// Total returns the total number of references counted.
func (c Counts) Total() int64 { return c.IFetch + c.Load + c.Store }

// Add increments the tally for one reference kind.
func (c *Counts) Add(k Kind) {
	switch k {
	case IFetch:
		c.IFetch++
	case Load:
		c.Load++
	case Store:
		c.Store++
	}
}
