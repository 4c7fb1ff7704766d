package mainmem

import (
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	if err := Base().Validate(); err != nil {
		t.Fatalf("base config rejected: %v", err)
	}
	bad := []Config{
		{ReadNS: 0, WriteNS: 100, RecoveryNS: 0},
		{ReadNS: 180, WriteNS: 0, RecoveryNS: 0},
		{ReadNS: 180, WriteNS: 100, RecoveryNS: -1},
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

func TestBaseAndSlow(t *testing.T) {
	b, s := Base(), Slow()
	if s.ReadNS != 2*b.ReadNS || s.WriteNS != 2*b.WriteNS || s.RecoveryNS != 2*b.RecoveryNS {
		t.Errorf("Slow() = %+v is not 2x Base() = %+v", s, b)
	}
}

func TestIdleRead(t *testing.T) {
	m := MustNew(Base())
	if got := m.Read(0, 1000); got != 1180 {
		t.Errorf("idle Read(1000) ready at %d, want 1180", got)
	}
	reads, writes, stall := m.Stats()
	if reads != 1 || writes != 0 || stall != 0 {
		t.Errorf("stats = %d,%d,%d", reads, writes, stall)
	}
}

func TestRecoveryBetweenOperations(t *testing.T) {
	m := MustNew(Base())
	// A write starting at 0 completes at 100, but the next operation may
	// not start until 120 (recovery from the write's start).
	if done := m.Write(0, 0); done != 100 {
		t.Fatalf("Write(0) done at %d, want 100", done)
	}
	if f := m.FreeAt(); f != 120 {
		t.Fatalf("FreeAt after write = %d, want 120", f)
	}
	// A read arriving at 10 waits until 120: ready at 300. This is the
	// paper's worst-ish case: the 270 ns nominal penalty grows by the
	// collision with the in-progress write.
	if ready := m.Read(0, 10); ready != 300 {
		t.Errorf("colliding Read ready at %d, want 300", ready)
	}
	_, _, stall := m.Stats()
	if stall != 110 {
		t.Errorf("stall = %d, want 110", stall)
	}
}

func TestReadDominatesRecovery(t *testing.T) {
	m := MustNew(Base())
	m.Read(0, 0) // ends 180 > recovery 120
	if f := m.FreeAt(); f != 180 {
		t.Errorf("FreeAt after read = %d, want 180", f)
	}
}

func TestFreeAtBeforeFirstOp(t *testing.T) {
	m := MustNew(Base())
	if m.FreeAt() != 0 {
		t.Errorf("fresh memory FreeAt = %d, want 0", m.FreeAt())
	}
}

// Property: operations never overlap and successive starts are at least
// RecoveryNS apart.
func TestQuickSpacing(t *testing.T) {
	f := func(reqs []uint16, kinds []bool) bool {
		m := MustNew(Base())
		n := len(reqs)
		if len(kinds) < n {
			n = len(kinds)
		}
		var lastStart, lastEnd int64 = -1 << 40, -1 << 40
		for i := 0; i < n; i++ {
			earliest := int64(reqs[i])
			var end, dur int64
			if kinds[i] {
				end = m.Read(0, earliest)
				dur = Base().ReadNS
			} else {
				end = m.Write(0, earliest)
				dur = Base().WriteNS
			}
			start := end - dur
			if start < earliest || start < lastEnd || start < lastStart+Base().RecoveryNS {
				return false
			}
			lastStart, lastEnd = start, end
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPageModeValidation(t *testing.T) {
	bad := Base()
	bad.PageBytes = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative page accepted")
	}
	bad = Base().WithPageMode(2048, 0)
	if err := bad.Validate(); err == nil {
		t.Error("zero page-hit time accepted")
	}
	bad = Base().WithPageMode(2048, 500)
	if err := bad.Validate(); err == nil {
		t.Error("page-hit time above ReadNS accepted")
	}
	if err := Base().WithPageMode(2048, 90).Validate(); err != nil {
		t.Errorf("valid page mode rejected: %v", err)
	}
}

func TestPageModeHits(t *testing.T) {
	m := MustNew(Base().WithPageMode(2048, 60))
	// First read opens the row: full 180ns.
	if got := m.Read(0x1000, 0); got != 180 {
		t.Fatalf("row-miss read ready at %d, want 180", got)
	}
	// Same 2KB row, after recovery: 60ns.
	start := m.FreeAt()
	if got := m.Read(0x1400, start); got != start+60 {
		t.Errorf("row-hit read ready at %d, want %d", got, start+60)
	}
	// Different row: full time again.
	start = m.FreeAt()
	if got := m.Read(0x9000, start); got != start+180 {
		t.Errorf("row-miss read ready at %d, want %d", got, start+180)
	}
	// A write to another row moves the open row.
	m.Write(0x1000, m.FreeAt())
	start = m.FreeAt()
	if got := m.Read(0x9000, start); got != start+180 {
		t.Errorf("read after row-moving write ready at %d, want full time", got)
	}
}

func TestPageModeOffNeverHits(t *testing.T) {
	m := MustNew(Base())
	m.Read(0x1000, 0)
	start := m.FreeAt()
	if got := m.Read(0x1010, start); got != start+Base().ReadNS {
		t.Errorf("same-row read with page mode off ready at %d, want %d", got, start+Base().ReadNS)
	}
}
