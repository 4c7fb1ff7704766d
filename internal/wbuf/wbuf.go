// Package wbuf models the write buffers that sit between adjacent levels
// of the hierarchy. The paper's base machine places a 4-entry buffer
// between each level, each entry one upstream block wide. Buffers drain in
// the background whenever the downstream resource is idle, which is how
// write-back traffic is "mostly hidden between the read requests" (§4,
// footnote 2). A demand read that misses on a block still sitting in the
// buffer must flush the buffer up to and including the matching entry
// before the read may proceed; a full buffer back-pressures the writer.
package wbuf

import "fmt"

// Downstream is the resource a buffer drains into. FreeAt reports when the
// resource is next idle; Write performs one buffered write beginning no
// earlier than start and returns its completion time, updating the
// resource's own schedule.
type Downstream interface {
	FreeAt() int64
	Write(addr uint64, start int64) (done int64)
}

// Stats counts buffer events.
type Stats struct {
	Pushes     int64 // blocks enqueued
	Drains     int64 // blocks written downstream
	FullStalls int64 // pushes that had to wait for space
	MatchHits  int64 // demand reads that matched a buffered block
	StallNS    int64 // total time writers waited on a full buffer
	Coalesced  int64 // pushes absorbed by an existing entry
}

type entry struct {
	addr  uint64 // block address
	ready int64  // time the entry entered the buffer
}

// Buffer is a FIFO write buffer. It is not safe for concurrent use.
//
// Entries live in a ring allocated once at construction (the buffer's
// depth is a small hardware constant), so steady-state pushes and drains
// never allocate — part of the simulator's allocation-free access path.
type Buffer struct {
	depth    int
	ds       Downstream
	ring     []entry
	head     int // index of the oldest entry
	n        int // live entries
	stats    Stats
	coalesce bool
}

// front returns the oldest entry. Callers must ensure n > 0.
func (b *Buffer) front() entry { return b.ring[b.head] }

// at returns the i-th oldest entry (0 = front). Callers must ensure i < n.
func (b *Buffer) at(i int) entry { return b.ring[b.wrap(b.head+i)] }

// wrap maps a position less than twice the ring's length into the ring.
func (b *Buffer) wrap(i int) int {
	if i >= len(b.ring) {
		i -= len(b.ring)
	}
	return i
}

// SetCoalescing enables write coalescing: a push whose block address is
// already buffered is absorbed by the existing entry instead of consuming
// a slot, the way hardware write buffers merge writes to the same block.
func (b *Buffer) SetCoalescing(on bool) { b.coalesce = on }

// New constructs a buffer of the given depth draining into ds. A depth of
// zero is allowed and models a system without write buffering: every push
// stalls until the write completes downstream.
func New(depth int, ds Downstream) (*Buffer, error) {
	if depth < 0 {
		return nil, fmt.Errorf("wbuf: depth %d must be non-negative", depth)
	}
	if ds == nil {
		return nil, fmt.Errorf("wbuf: downstream must not be nil")
	}
	b := &Buffer{depth: depth, ds: ds}
	if depth > 0 {
		b.ring = make([]entry, depth)
	}
	return b, nil
}

// MustNew is New that panics on configuration errors.
func MustNew(depth int, ds Downstream) *Buffer {
	b, err := New(depth, ds)
	if err != nil {
		panic(err)
	}
	return b
}

// Len returns the number of buffered entries.
func (b *Buffer) Len() int { return b.n }

// Depth returns the buffer capacity.
func (b *Buffer) Depth() int { return b.depth }

// Stats returns a copy of the counters gathered so far.
func (b *Buffer) Stats() Stats { return b.stats }

// drainOne writes the front entry downstream, beginning no earlier than
// both the entry's ready time and the downstream's free time, and returns
// the completion time.
func (b *Buffer) drainOne() int64 {
	e := b.front()
	b.head = b.wrap(b.head + 1)
	b.n--
	start := e.ready
	if f := b.ds.FreeAt(); f > start {
		start = f
	}
	b.stats.Drains++
	return b.ds.Write(e.addr, start)
}

// CatchUp performs the background drains that would have happened before
// time now: while the downstream is idle before now and entries are
// waiting, the front entry is written. A drain that starts before now may
// complete after it — the downstream is then busy when a demand request
// arrives, exactly the contention the paper models.
func (b *Buffer) CatchUp(now int64) {
	for b.n > 0 {
		start := b.front().ready
		if f := b.ds.FreeAt(); f > start {
			start = f
		}
		if start >= now {
			return
		}
		b.drainOne()
	}
}

// Push enqueues the block at addr at time now, returning the time the push
// completes. When the buffer has space the push is immediate; when it is
// full the writer stalls until the front entry has drained.
func (b *Buffer) Push(addr uint64, now int64) int64 {
	b.CatchUp(now)
	b.stats.Pushes++
	if b.coalesce && b.depth > 0 {
		for i := 0; i < b.n; i++ {
			if b.at(i).addr == addr {
				b.stats.Coalesced++
				return now
			}
		}
	}
	if b.depth == 0 {
		// Unbuffered: the write itself stalls the writer.
		start := now
		if f := b.ds.FreeAt(); f > start {
			start = f
		}
		b.stats.Drains++
		done := b.ds.Write(addr, start)
		b.stats.StallNS += done - now
		return done
	}
	for b.n >= b.depth {
		b.stats.FullStalls++
		done := b.drainOne()
		if done > now {
			b.stats.StallNS += done - now
			now = done
		}
	}
	b.ring[b.wrap(b.head+b.n)] = entry{addr: addr, ready: now}
	b.n++
	return now
}

// Contains reports whether a block address is buffered.
func (b *Buffer) Contains(addr uint64) bool {
	for i := 0; i < b.n; i++ {
		if b.at(i).addr == addr {
			return true
		}
	}
	return false
}

// FlushMatch checks whether the block at addr is buffered and, if so,
// drains entries in FIFO order up to and including the match, returning the
// time the matching write completes (which may exceed now). When there is
// no match it returns now unchanged.
func (b *Buffer) FlushMatch(addr uint64, now int64) int64 {
	idx := -1
	for i := 0; i < b.n; i++ {
		if b.at(i).addr == addr {
			idx = i
			break
		}
	}
	if idx < 0 {
		return now
	}
	b.stats.MatchHits++
	var done int64
	for i := 0; i <= idx; i++ {
		done = b.drainOne()
	}
	if done > now {
		now = done
	}
	return now
}
