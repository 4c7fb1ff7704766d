package bus

import (
	"testing"
	"testing/quick"
)

func base() Config { return Config{Name: "test", WidthBytes: 16, CycleNS: 30} }

func TestValidate(t *testing.T) {
	if err := base().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{WidthBytes: 0, CycleNS: 10},
		{WidthBytes: -1, CycleNS: 10},
		{WidthBytes: 4, CycleNS: 0},
		{WidthBytes: 4, CycleNS: -5},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: accepted %+v", i, cfg)
		}
	}
	if _, err := New(bad[0]); err == nil {
		t.Error("New accepted invalid config")
	}
}

func TestTransferNS(t *testing.T) {
	b := MustNew(base()) // 16 B per 30 ns beat
	cases := []struct {
		bytes int
		want  int64
	}{
		{0, 0},
		{-4, 0},
		{1, 30},
		{16, 30},
		{17, 60},
		{32, 60}, // the paper's 8-word L2 block: 2 beats
		{64, 120},
	}
	for _, c := range cases {
		if got := b.TransferNS(c.bytes); got != c.want {
			t.Errorf("TransferNS(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestReserveSerializes(t *testing.T) {
	b := MustNew(base())
	start, done := b.Reserve(100, 30)
	if start != 100 || done != 130 {
		t.Fatalf("first Reserve = %d,%d", start, done)
	}
	// A request arriving during the first transfer waits.
	start, done = b.Reserve(110, 60)
	if start != 130 || done != 190 {
		t.Fatalf("second Reserve = %d,%d, want 130,190", start, done)
	}
	// A request arriving after the bus is idle starts immediately.
	start, done = b.Reserve(500, 30)
	if start != 500 || done != 530 {
		t.Fatalf("third Reserve = %d,%d, want 500,530", start, done)
	}
	if b.FreeAt() != 530 {
		t.Errorf("FreeAt = %d, want 530", b.FreeAt())
	}
	if b.BusyCycles() != 4 {
		t.Errorf("BusyCycles = %d, want 4", b.BusyCycles())
	}
}

// Property: Reserve never starts before the requested time or before the
// previous reservation completes, and completion is start+dur.
func TestQuickReserveMonotone(t *testing.T) {
	f := func(reqs []uint16) bool {
		b := MustNew(base())
		var prevDone int64
		for _, r := range reqs {
			earliest := int64(r)
			dur := int64(r%7+1) * 30
			start, done := b.Reserve(earliest, dur)
			if start < earliest || start < prevDone || done != start+dur {
				return false
			}
			prevDone = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
