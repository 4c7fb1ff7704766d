package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleRefs(n int) Trace {
	var refs Trace
	for i := 0; i < n; i++ {
		k := IFetch
		switch i % 4 {
		case 1:
			k = Load
		case 3:
			k = Store
		}
		refs = append(refs, Ref{Kind: k, Addr: uint64(0x1000 + 4*i), PID: uint16(i / 50)})
	}
	return refs
}

func encodeBinary(t *testing.T, refs Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	for _, r := range refs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// uniformRefs builds a trace whose binary encoding has a fixed record
// layout: all ifetches, PID 0, addresses ascending by 4. Record 0 is 3
// bytes (initial delta 0x1000), every later record is 2 bytes (header +
// 1-byte delta varint), so record i >= 1 starts at uniformHeaderOffset(i).
func uniformRefs(n int) Trace {
	var refs Trace
	for i := 0; i < n; i++ {
		refs = append(refs, Ref{Kind: IFetch, Addr: uint64(0x1000 + 4*i)})
	}
	return refs
}

func uniformHeaderOffset(i int) int { return 5 + 3 + 2*(i-1) }

func TestLenientBinarySkipsFlippedByte(t *testing.T) {
	refs := uniformRefs(200)
	enc := encodeBinary(t, refs)

	// Flip reserved bits in the header of record 100 so the decoder
	// detects the damage.
	enc[uniformHeaderOffset(100)] |= 0xF8

	// Strict decode fails.
	if _, err := Collect(NewBinaryReader(bytes.NewReader(enc)), 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("strict decode err = %v, want ErrCorrupt", err)
	}

	// Lenient decode salvages everything but the damaged record.
	ls := Lenient(NewBinaryReader(bytes.NewReader(enc)), 10)
	got, err := Collect(ls, 0)
	if err != nil {
		t.Fatalf("lenient decode: %v", err)
	}
	if len(got) != len(refs)-1 {
		t.Errorf("salvaged %d of %d refs, want all but one", len(got), len(refs))
	}
	if sk := ls.(*lenientStream).Skips(); sk != 1 {
		t.Errorf("skips = %d, want 1", sk)
	}
}

func TestLenientBinaryCountsSkips(t *testing.T) {
	enc := encodeBinary(t, uniformRefs(100))
	enc[uniformHeaderOffset(30)] |= 0xF8
	c, err := Count(Lenient(NewBinaryReader(bytes.NewReader(enc)), -1))
	if err != nil {
		t.Fatal(err)
	}
	if c.Skipped != 1 {
		t.Errorf("Counts.Skipped = %d, want 1 (counts: %+v)", c.Skipped, c)
	}
	if c.Total() != 99 {
		t.Errorf("salvaged total = %d, want 99", c.Total())
	}
}

// TestSkipsExported: the exported Skips helper distinguishes a lenient
// stream that skipped records (n, true), a clean lenient stream (0, true),
// and a strict stream that does not track skips at all (0, false).
func TestSkipsExported(t *testing.T) {
	enc := encodeBinary(t, uniformRefs(100))
	enc[uniformHeaderOffset(30)] |= 0xF8
	ls := Lenient(NewBinaryReader(bytes.NewReader(enc)), -1)
	if _, err := Collect(ls, 0); err != nil {
		t.Fatal(err)
	}
	if n, ok := Skips(ls); !ok || n != 1 {
		t.Errorf("Skips(lenient) = %d, %v; want 1, true", n, ok)
	}

	clean := Lenient(NewBinaryReader(bytes.NewReader(encodeBinary(t, uniformRefs(10)))), -1)
	if _, err := Collect(clean, 0); err != nil {
		t.Fatal(err)
	}
	if n, ok := Skips(clean); !ok || n != 0 {
		t.Errorf("Skips(clean lenient) = %d, %v; want 0, true", n, ok)
	}

	strict := NewBinaryReader(bytes.NewReader(encodeBinary(t, uniformRefs(10))))
	if n, ok := Skips(strict); ok || n != 0 {
		t.Errorf("Skips(strict) = %d, %v; want 0, false", n, ok)
	}
}

func TestLenientBinaryBudgetExhausted(t *testing.T) {
	enc := encodeBinary(t, uniformRefs(300))
	// Damage several separate record headers.
	for _, i := range []int{50, 100, 150, 200, 250} {
		enc[uniformHeaderOffset(i)] |= 0xF8
	}
	_, err := Collect(Lenient(NewBinaryReader(bytes.NewReader(enc)), 1), 0)
	if !errors.Is(err, ErrSkipBudget) {
		t.Fatalf("err = %v, want ErrSkipBudget", err)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("budget error should wrap the underlying corruption: %v", err)
	}
}

func TestLenientBinarySkipsOverflowedVarint(t *testing.T) {
	refs := uniformRefs(200)
	enc := encodeBinary(t, refs)

	// Stamp a run of 0xff over record 100: encoding/binary reports the
	// unbounded varint as an overflow, which must classify as corruption
	// (skippable), not as an I/O failure.
	for i := 0; i < 8; i++ {
		enc[uniformHeaderOffset(100)+i] = 0xff
	}
	if _, err := Collect(NewBinaryReader(bytes.NewReader(enc)), 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("strict decode err = %v, want ErrCorrupt", err)
	}
	ls := Lenient(NewBinaryReader(bytes.NewReader(enc)), -1)
	got, err := Collect(ls, 0)
	if err != nil {
		t.Fatalf("lenient decode: %v", err)
	}
	// The 8 stamped bytes span records 100-103; everything else survives.
	if len(got) < len(refs)-5 || len(got) >= len(refs) {
		t.Errorf("salvaged %d of %d refs, want nearly all", len(got), len(refs))
	}
	if sk := ls.(*lenientStream).Skips(); sk < 1 {
		t.Errorf("skips = %d, want >= 1", sk)
	}
}

func TestLenientBinaryHeaderCorruptionFatal(t *testing.T) {
	enc := encodeBinary(t, uniformRefs(10))
	enc[0] = 'X' // break the magic
	_, err := Collect(Lenient(NewBinaryReader(bytes.NewReader(enc)), -1), 0)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt magic err = %v, want ErrCorrupt", err)
	}
}

func TestLenientBinaryTruncatedTail(t *testing.T) {
	enc := encodeBinary(t, uniformRefs(100))
	cut := enc[:len(enc)-1] // half a record at the end
	got, err := Collect(Lenient(NewBinaryReader(bytes.NewReader(cut)), -1), 0)
	if err != nil {
		t.Fatalf("lenient decode of truncated trace: %v", err)
	}
	if len(got) != 99 {
		t.Errorf("salvaged %d refs from truncated trace, want 99", len(got))
	}
}

func TestLenientTextSkipsGarbageLines(t *testing.T) {
	var sb strings.Builder
	w := NewTextWriter(&sb)
	refs := sampleRefs(50)
	for _, r := range refs {
		w.Write(r)
	}
	w.Flush()
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	lines[10] = "load 0xNOTANADDRESS"
	lines[20] = "garbage line entirely"
	input := strings.Join(lines, "\n")

	// Strict fails.
	if _, err := Collect(NewTextReader(strings.NewReader(input)), 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("strict err = %v, want ErrCorrupt", err)
	}

	ls := Lenient(NewTextReader(strings.NewReader(input)), 5)
	got, err := Collect(ls, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(refs)-2 {
		t.Errorf("salvaged %d refs, want %d", len(got), len(refs)-2)
	}
	if sk := ls.(*lenientStream).Skips(); sk != 2 {
		t.Errorf("skips = %d, want 2", sk)
	}
}

func TestLenientTextBudget(t *testing.T) {
	input := "load 0x10\nbad\nbad\nbad\nload 0x20\n"
	_, err := Collect(Lenient(NewTextReader(strings.NewReader(input)), 2), 0)
	if !errors.Is(err, ErrSkipBudget) {
		t.Fatalf("err = %v, want ErrSkipBudget", err)
	}
}

func TestLenientPassThroughNonCorrupt(t *testing.T) {
	ioErr := fmt.Errorf("disk on fire")
	s := Lenient(Func(func() (Ref, error) { return Ref{}, ioErr }), -1)
	if _, err := s.Next(); !errors.Is(err, ioErr) {
		t.Errorf("err = %v, want the I/O error", err)
	}

	// EOF passes through untouched.
	s = Lenient(Trace{{Kind: Load, Addr: 4}}.Stream(), -1)
	if _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next(); err != io.EOF {
		t.Errorf("err = %v, want io.EOF", err)
	}
}

// TestLoadArenaLenient: LoadArena skips corrupt records within budget
// and counts them, fails strict decoding on them, and decodes nothing past
// the prefix it keeps, so damage beyond the prefix goes unread.
func TestLoadArenaLenient(t *testing.T) {
	enc := encodeBinary(t, uniformRefs(200))
	enc[uniformHeaderOffset(100)] |= 0xF8
	path := filepath.Join(t.TempDir(), "t.mlct")
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		n, lenient    int
		refs, skipped int
		corrupt       bool
	}{
		{n: 0, lenient: -1, refs: 199, skipped: 1},
		{n: 0, lenient: 0, corrupt: true},
		{n: 50, lenient: 0, refs: 50},
	} {
		arena, _, skipped, err := LoadArena(path, int64(tc.n), tc.lenient)
		switch {
		case tc.corrupt:
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("%+v: err = %v, want ErrCorrupt", tc, err)
			}
		case err != nil:
			t.Errorf("%+v: %v", tc, err)
		case arena.Len() != tc.refs || skipped != int64(tc.skipped):
			t.Errorf("%+v: %d refs, %d skipped", tc, arena.Len(), skipped)
		}
	}
}
