package trace

import (
	"errors"
	"io"
	"testing"
)

func arenaRefs(n int) []Ref {
	refs := make([]Ref, n)
	for i := range refs {
		refs[i] = Ref{Addr: uint64(i) * 16, PID: uint16(i % 3), Kind: Kind(i % 3)}
	}
	return refs
}

func TestMaterializeRoundTrip(t *testing.T) {
	refs := arenaRefs(100)
	a, err := Materialize(Trace(refs).Stream())
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != len(refs) {
		t.Fatalf("Len = %d, want %d", a.Len(), len(refs))
	}
	got, err := Collect(a.Cursor(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(refs) {
		t.Fatalf("collected %d refs, want %d", len(got), len(refs))
	}
	for i := range refs {
		if got[i] != refs[i] {
			t.Fatalf("ref %d = %v, want %v", i, got[i], refs[i])
		}
	}
}

func TestMaterializeError(t *testing.T) {
	bad := errors.New("boom")
	n := 0
	s := Func(func() (Ref, error) {
		n++
		if n > 5 {
			return Ref{}, bad
		}
		return Ref{Addr: uint64(n)}, nil
	})
	if _, err := Materialize(s); !errors.Is(err, bad) {
		t.Fatalf("Materialize error = %v, want %v", err, bad)
	}
}

func TestMaterializeFromCursorSharesBacking(t *testing.T) {
	a := NewArena(arenaRefs(10))
	c := a.Cursor()
	if _, err := c.Next(); err != nil {
		t.Fatal(err)
	}
	b, err := Materialize(c)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 9 {
		t.Fatalf("Len = %d, want 9 (cursor had consumed one ref)", b.Len())
	}
	if &b.Refs()[0] != &a.Refs()[1] {
		t.Fatal("materializing a cursor should share the arena's backing array, not copy it")
	}
}

func TestCursorReadRefs(t *testing.T) {
	refs := arenaRefs(10)
	c := NewArena(refs).Cursor()
	buf := make([]Ref, 4)

	var got []Ref
	for {
		n, err := c.ReadRefs(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != len(refs) {
		t.Fatalf("read %d refs, want %d", len(got), len(refs))
	}
	for i := range refs {
		if got[i] != refs[i] {
			t.Fatalf("ref %d = %v, want %v", i, got[i], refs[i])
		}
	}
}

func TestCursorChunkAliasesArena(t *testing.T) {
	a := NewArena(arenaRefs(10))
	c := a.Cursor()
	if _, err := c.Next(); err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for {
		chunk, err := c.Chunk(4)
		if err == io.EOF {
			if len(chunk) != 0 {
				t.Fatalf("Chunk at EOF returned %d refs", len(chunk))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		start := c.pos - len(chunk)
		if &chunk[0] != &a.Refs()[start] {
			t.Fatalf("chunk at ref %d is a copy, want an alias of the arena", start)
		}
		if cap(chunk) != len(chunk) {
			t.Fatalf("chunk cap %d exceeds its len %d: an append would overwrite the arena", cap(chunk), len(chunk))
		}
		sizes = append(sizes, len(chunk))
	}
	if len(sizes) != 3 || sizes[0] != 4 || sizes[1] != 4 || sizes[2] != 1 {
		t.Fatalf("chunk sizes %v, want [4 4 1] after one Next", sizes)
	}
	if _, err := a.Cursor().Chunk(0); err == nil {
		t.Fatal("Chunk(0) succeeded; want an error")
	}
}

func TestCursorMixedNextAndReadRefs(t *testing.T) {
	refs := arenaRefs(6)
	c := NewArena(refs).Cursor()
	r, err := c.Next()
	if err != nil || r != refs[0] {
		t.Fatalf("Next = %v, %v", r, err)
	}
	buf := make([]Ref, 3)
	n, err := c.ReadRefs(buf)
	if err != nil || n != 3 {
		t.Fatalf("ReadRefs = %d, %v", n, err)
	}
	if buf[0] != refs[1] || buf[2] != refs[3] {
		t.Fatalf("batch after Next misaligned: %v", buf[:n])
	}
	if c.pos != 4 {
		t.Fatalf("position %d, want 4", c.pos)
	}
	c.Reset()
	if c.pos != 0 {
		t.Fatalf("position after Reset %d, want 0", c.pos)
	}
}

func TestCursorsAreIndependent(t *testing.T) {
	a := NewArena(arenaRefs(5))
	c1, c2 := a.Cursor(), a.Cursor()
	if _, err := c1.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Next(); err != nil {
		t.Fatal(err)
	}
	r, err := c2.Next()
	if err != nil {
		t.Fatal(err)
	}
	if r.Addr != 0 {
		t.Fatalf("second cursor disturbed by first: got addr %#x", r.Addr)
	}
}

func TestCursorEmptyArena(t *testing.T) {
	c := NewArena(nil).Cursor()
	if _, err := c.Next(); err != io.EOF {
		t.Fatalf("Next on empty arena = %v, want io.EOF", err)
	}
	if n, err := c.ReadRefs(make([]Ref, 8)); n != 0 || err != io.EOF {
		t.Fatalf("ReadRefs on empty arena = %d, %v, want 0, io.EOF", n, err)
	}
}
