package wbuf

import (
	"testing"
	"testing/quick"
)

// fakeDownstream is a fixed-service-time resource recording every write.
type fakeDownstream struct {
	serviceNS int64
	freeAt    int64
	writes    []struct {
		addr  uint64
		start int64
	}
}

func (d *fakeDownstream) FreeAt() int64 { return d.freeAt }

func (d *fakeDownstream) Write(addr uint64, start int64) int64 {
	if start < d.freeAt {
		start = d.freeAt
	}
	d.writes = append(d.writes, struct {
		addr  uint64
		start int64
	}{addr, start})
	d.freeAt = start + d.serviceNS
	return d.freeAt
}

func TestNewValidation(t *testing.T) {
	ds := &fakeDownstream{serviceNS: 10}
	if _, err := New(-1, ds); err == nil {
		t.Error("New(-1) accepted")
	}
	if _, err := New(4, nil); err == nil {
		t.Error("New(nil downstream) accepted")
	}
	b, err := New(4, ds)
	if err != nil || b.Depth() != 4 {
		t.Fatalf("New(4) = %v, %v", b, err)
	}
}

func TestPushIsImmediateWhenSpace(t *testing.T) {
	ds := &fakeDownstream{serviceNS: 50}
	b := MustNew(4, ds)
	for i := 0; i < 4; i++ {
		if done := b.Push(uint64(i*64), 100); done != 100 {
			t.Errorf("push %d completed at %d, want 100 (buffered)", i, done)
		}
	}
	if b.Len() != 4 {
		t.Errorf("Len = %d, want 4", b.Len())
	}
	if b.Stats().Pushes != 4 {
		t.Errorf("Pushes = %d", b.Stats().Pushes)
	}
}

func TestFullBufferStalls(t *testing.T) {
	ds := &fakeDownstream{serviceNS: 50}
	b := MustNew(2, ds)
	b.Push(0x0, 100)
	b.Push(0x40, 100)
	// Buffer full; the third push must wait for the front entry to drain.
	// The drain starts at max(ready=100, freeAt=0) = 100, done 150.
	done := b.Push(0x80, 100)
	if done != 150 {
		t.Fatalf("stalled push completed at %d, want 150", done)
	}
	s := b.Stats()
	if s.FullStalls != 1 || s.Drains != 1 || s.StallNS != 50 {
		t.Errorf("stats = %+v", s)
	}
}

func TestCatchUpDrainsInBackground(t *testing.T) {
	ds := &fakeDownstream{serviceNS: 50}
	b := MustNew(4, ds)
	b.Push(0x0, 100)
	b.Push(0x40, 100)
	// By time 500 both entries had time to drain (100-150, 150-200).
	b.CatchUp(500)
	if b.Len() != 0 {
		t.Fatalf("Len after CatchUp = %d, want 0", b.Len())
	}
	if len(ds.writes) != 2 || ds.writes[0].start != 100 || ds.writes[1].start != 150 {
		t.Errorf("drain schedule = %+v", ds.writes)
	}
	// A drain must not start at or after now.
	b.Push(0x80, 600)
	b.CatchUp(600)
	if b.Len() != 1 {
		t.Errorf("entry drained too early")
	}
}

func TestCatchUpRespectsDownstreamBusy(t *testing.T) {
	ds := &fakeDownstream{serviceNS: 50, freeAt: 1000}
	b := MustNew(4, ds)
	b.Push(0x0, 100)
	b.CatchUp(500) // downstream busy until 1000: no drain possible before 500
	if b.Len() != 1 {
		t.Error("drained while downstream busy")
	}
	b.CatchUp(2000) // now the drain would start at 1000 < 2000
	if b.Len() != 0 {
		t.Error("failed to drain after downstream became free")
	}
}

func TestFlushMatch(t *testing.T) {
	ds := &fakeDownstream{serviceNS: 50}
	b := MustNew(4, ds)
	b.Push(0x0, 100)
	b.Push(0x40, 100)
	b.Push(0x80, 100)
	if !b.Contains(0x40) || b.Contains(0xc0) {
		t.Fatal("Contains wrong")
	}
	// Match on the middle entry: entries 0x0 and 0x40 drain (100-150,
	// 150-200); the read resumes at 200; 0x80 stays buffered.
	now := b.FlushMatch(0x40, 120)
	if now != 200 {
		t.Errorf("FlushMatch returned %d, want 200", now)
	}
	if b.Len() != 1 || !b.Contains(0x80) {
		t.Errorf("buffer after FlushMatch: len %d", b.Len())
	}
	if b.Stats().MatchHits != 1 {
		t.Errorf("MatchHits = %d", b.Stats().MatchHits)
	}
	// No match: time unchanged.
	if got := b.FlushMatch(0xdead, 300); got != 300 {
		t.Errorf("no-match FlushMatch returned %d, want 300", got)
	}
}

func TestFlushAll(t *testing.T) {
	ds := &fakeDownstream{serviceNS: 50}
	b := MustNew(4, ds)
	if got := b.FlushAll(42); got != 42 {
		t.Errorf("empty FlushAll = %d, want 42", got)
	}
	b.Push(0x0, 100)
	b.Push(0x40, 100)
	if got := b.FlushAll(100); got != 200 {
		t.Errorf("FlushAll = %d, want 200", got)
	}
	if b.Len() != 0 {
		t.Error("entries remain after FlushAll")
	}
}

func TestUnbufferedWrites(t *testing.T) {
	ds := &fakeDownstream{serviceNS: 50}
	b := MustNew(0, ds)
	if done := b.Push(0x0, 100); done != 150 {
		t.Errorf("unbuffered push done at %d, want 150", done)
	}
	if b.Stats().StallNS != 50 {
		t.Errorf("unbuffered stall = %d, want 50", b.Stats().StallNS)
	}
	if b.Len() != 0 {
		t.Error("unbuffered buffer holds entries")
	}
}

// Property: every pushed block is eventually written downstream exactly
// once (after a FlushAll), in FIFO order.
func TestQuickFIFOCompleteness(t *testing.T) {
	f := func(addrs []uint64, depth uint8) bool {
		ds := &fakeDownstream{serviceNS: 30}
		b := MustNew(int(depth%6), ds)
		now := int64(0)
		for _, a := range addrs {
			now = b.Push(a, now)
			now += 10
		}
		b.FlushAll(now)
		if len(ds.writes) != len(addrs) {
			return false
		}
		for i, w := range ds.writes {
			if w.addr != addrs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: downstream write start times never decrease and never overlap
// (serviceNS spacing).
func TestQuickDrainScheduleMonotone(t *testing.T) {
	f := func(ops []uint8) bool {
		ds := &fakeDownstream{serviceNS: 25}
		b := MustNew(3, ds)
		now := int64(0)
		for i, op := range ops {
			now += int64(op % 40)
			switch op % 3 {
			case 0:
				now = b.Push(uint64(i)*64, now)
			case 1:
				b.CatchUp(now)
			case 2:
				now = b.FlushMatch(uint64(i%8)*64, now)
			}
		}
		b.FlushAll(now)
		for i := 1; i < len(ds.writes); i++ {
			if ds.writes[i].start < ds.writes[i-1].start+25 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCoalescing(t *testing.T) {
	ds := &fakeDownstream{serviceNS: 50, freeAt: 1 << 40} // never drains
	b := MustNew(2, ds)
	b.SetCoalescing(true)
	b.Push(0x0, 100)
	b.Push(0x40, 100)
	// Buffer full, but a repeat of a buffered block is absorbed for free.
	if done := b.Push(0x0, 100); done != 100 {
		t.Errorf("coalesced push completed at %d, want 100", done)
	}
	if b.Len() != 2 {
		t.Errorf("Len = %d, want 2 (no new entry)", b.Len())
	}
	if b.Stats().Coalesced != 1 || b.Stats().Pushes != 3 {
		t.Errorf("stats = %+v", b.Stats())
	}
}

func TestCoalescingOffByDefault(t *testing.T) {
	ds := &fakeDownstream{serviceNS: 50}
	b := MustNew(4, ds)
	b.Push(0x0, 100)
	b.Push(0x0, 100)
	if b.Len() != 2 || b.Stats().Coalesced != 0 {
		t.Errorf("default coalescing active: len %d, stats %+v", b.Len(), b.Stats())
	}
}
