package trace

import (
	"errors"
	"io"
)

// Count consumes the entire stream and tallies it. When s is a Lenient
// stream the records it skipped land in Counts.Skipped.
func Count(s Stream) (Counts, error) {
	var c Counts
	for {
		r, err := s.Next()
		if errors.Is(err, io.EOF) {
			c.Skipped, _ = Skips(s)
			return c, nil
		}
		if err != nil {
			return c, err
		}
		c.Add(r.Kind)
	}
}

// Reads returns the number of read references (ifetches + loads).
func (c Counts) Reads() int64 { return c.IFetch + c.Load }

// Count returns the number of references written so far.
func (t *TextWriter) Count() int64 { return t.n }

// Pins returns the current reader count.
func (a *Artifact) Pins() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pins
}
