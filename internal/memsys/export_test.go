package memsys

// Len returns the number of recorded operations.
func (s *TagScript) Len() int { return len(s.ops) }

// FlipOp exposes the operation index at which recording turned on.
func (s *TagScript) FlipOp() int { return s.flipOp }

// ShiftFlip returns a copy of s whose recording flip lands d operations
// later than recorded.
func ShiftFlip(s *TagScript, d int) *TagScript {
	c := *s
	c.flipOp += d
	return &c
}

// WithExtraOp returns a copy of s with one more operation, a buffered-write
// hit, after its last.
func WithExtraOp(s *TagScript) *TagScript {
	c := *s
	c.ops = append(append([]uint8(nil), s.ops...), tagWrite|tagHit)
	return &c
}
