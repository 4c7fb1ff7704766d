package wbuf

// FlushAll drains every entry, returning the completion time of the last
// write (or now when the buffer is empty).
func (b *Buffer) FlushAll(now int64) int64 {
	var done int64
	for b.n > 0 {
		done = b.drainOne()
	}
	if done > now {
		now = done
	}
	return now
}
