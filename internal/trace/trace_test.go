package trace

import (
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mustCollect(t *testing.T, s Stream) Trace {
	t.Helper()
	tr, err := Collect(s, 0)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	return tr
}

func TestKindString(t *testing.T) {
	cases := []struct {
		k    Kind
		want string
	}{
		{IFetch, "ifetch"},
		{Load, "load"},
		{Store, "store"},
		{Kind(7), "kind(7)"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("Kind(%d).String() = %q, want %q", c.k, got, c.want)
		}
	}
}

func TestKindIsRead(t *testing.T) {
	if !IFetch.IsRead() || !Load.IsRead() {
		t.Error("IFetch and Load must be reads")
	}
	if Store.IsRead() {
		t.Error("Store must not be a read")
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range []Kind{IFetch, Load, Store} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v, nil", k.String(), got, err, k)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind(bogus) succeeded, want error")
	}
}

func TestTraceStream(t *testing.T) {
	in := Trace{
		{Kind: IFetch, Addr: 0x1000},
		{Kind: Load, Addr: 0x2000, PID: 3},
		{Kind: Store, Addr: 0x3000},
	}
	got := mustCollect(t, in.Stream())
	if len(got) != len(in) {
		t.Fatalf("round trip length = %d, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Errorf("ref %d = %v, want %v", i, got[i], in[i])
		}
	}
}

func TestCollectMax(t *testing.T) {
	in := make(Trace, 10)
	got, err := Collect(in.Stream(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Errorf("Collect(max=4) returned %d refs", len(got))
	}
}

func TestCounts(t *testing.T) {
	in := Trace{
		{Kind: IFetch}, {Kind: IFetch}, {Kind: Load}, {Kind: Store},
	}
	c, err := Count(in.Stream())
	if err != nil {
		t.Fatal(err)
	}
	if c.IFetch != 2 || c.Load != 1 || c.Store != 1 {
		t.Errorf("Count = %+v", c)
	}
	if c.Total() != 4 || c.Reads() != 3 {
		t.Errorf("Total = %d, Reads = %d", c.Total(), c.Reads())
	}
}

func TestLimit(t *testing.T) {
	in := make(Trace, 8)
	for i := range in {
		in[i] = Ref{Kind: IFetch, Addr: uint64(i)}
	}
	got := mustCollect(t, Limit(in.Stream(), 3))
	if len(got) != 3 || got[2].Addr != 2 {
		t.Errorf("Limit: got %v", got)
	}
}

func TestRoundRobin(t *testing.T) {
	a := Trace{{Addr: 1}, {Addr: 2}, {Addr: 3}}
	b := Trace{{Addr: 11}, {Addr: 12}}
	got := mustCollect(t, RoundRobin(2, a.Stream(), b.Stream()))
	want := []uint64{1, 2, 11, 12, 3}
	if len(got) != len(want) {
		t.Fatalf("RoundRobin yielded %d refs, want %d: %v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i].Addr != w {
			t.Errorf("ref %d addr = %d, want %d", i, got[i].Addr, w)
		}
	}
}

func TestRoundRobinPanicsOnBadQuantum(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RoundRobin(0) did not panic")
		}
	}()
	RoundRobin(0)
}

func randomTrace(rng *rand.Rand, n int) Trace {
	tr := make(Trace, n)
	for i := range tr {
		tr[i] = Ref{
			Kind: Kind(rng.Intn(3)),
			Addr: rng.Uint64(),
			PID:  uint16(rng.Intn(8)),
		}
	}
	return tr
}

func TestTextRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := randomTrace(rng, 500)
	var sb strings.Builder
	w := NewTextWriter(&sb)
	for _, r := range in {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 500 {
		t.Errorf("writer count = %d", w.Count())
	}
	got := mustCollect(t, NewTextReader(strings.NewReader(sb.String())))
	if len(got) != len(in) {
		t.Fatalf("got %d refs, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("ref %d = %v, want %v", i, got[i], in[i])
		}
	}
}

func TestTextReaderAliases(t *testing.T) {
	input := `
# comment line
i 0x100
2 0x104
l 0x200 5
r 0x204
0 0x208
s 0x300
w 0x304
1 0x308
`
	got := mustCollect(t, NewTextReader(strings.NewReader(input)))
	wantKinds := []Kind{IFetch, IFetch, Load, Load, Load, Store, Store, Store}
	if len(got) != len(wantKinds) {
		t.Fatalf("got %d refs, want %d", len(got), len(wantKinds))
	}
	for i, k := range wantKinds {
		if got[i].Kind != k {
			t.Errorf("ref %d kind = %v, want %v", i, got[i].Kind, k)
		}
	}
	if got[2].PID != 5 {
		t.Errorf("ref 2 pid = %d, want 5", got[2].PID)
	}
}

func TestTextReaderErrors(t *testing.T) {
	bad := []string{
		"bogus 0x100",
		"load",
		"load 0x1 2 3 4",
		"load zzz",
		"load 0x1 999999",
	}
	for _, line := range bad {
		_, err := NewTextReader(strings.NewReader(line)).Next()
		if err == nil {
			t.Errorf("line %q: want error, got nil", line)
		}
	}
}

func TestTextWriterRejectsInvalidKind(t *testing.T) {
	w := NewTextWriter(io.Discard)
	if err := w.Write(Ref{Kind: Kind(9)}); err == nil {
		t.Error("Write(invalid kind) succeeded")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := randomTrace(rng, 2000)
	var sb strings.Builder
	w := NewBinaryWriter(&sb)
	for _, r := range in {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got := mustCollect(t, NewBinaryReader(strings.NewReader(sb.String())))
	if len(got) != len(in) {
		t.Fatalf("got %d refs, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("ref %d = %v, want %v", i, got[i], in[i])
		}
	}
}

func TestBinaryEmptyTrace(t *testing.T) {
	var sb strings.Builder
	w := NewBinaryWriter(&sb)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got := mustCollect(t, NewBinaryReader(strings.NewReader(sb.String())))
	if len(got) != 0 {
		t.Errorf("empty trace decoded to %d refs", len(got))
	}
}

func TestBinaryCorruptInputs(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"bad magic":   "XXXX\x01",
		"bad version": "MLCT\x09",
		"bad kind":    "MLCT\x01\x03\x00",
		"truncated":   "MLCT\x01\x00",
	}
	for name, input := range cases {
		_, err := NewBinaryReader(strings.NewReader(input)).Next()
		if err == nil || err == io.EOF {
			t.Errorf("%s: err = %v, want corrupt error", name, err)
		}
	}
}

// Property: text and binary codecs both round-trip arbitrary traces.
func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(addrs []uint64, kinds []byte, pids []uint16) bool {
		n := len(addrs)
		if len(kinds) < n {
			n = len(kinds)
		}
		if len(pids) < n {
			n = len(pids)
		}
		in := make(Trace, n)
		for i := 0; i < n; i++ {
			in[i] = Ref{Kind: Kind(kinds[i] % 3), Addr: addrs[i], PID: pids[i]}
		}

		var tb, bb strings.Builder
		tw, bw := NewTextWriter(&tb), NewBinaryWriter(&bb)
		for _, r := range in {
			if tw.Write(r) != nil || bw.Write(r) != nil {
				return false
			}
		}
		if tw.Flush() != nil || bw.Flush() != nil {
			return false
		}
		fromText, err1 := Collect(NewTextReader(strings.NewReader(tb.String())), 0)
		fromBin, err2 := Collect(NewBinaryReader(strings.NewReader(bb.String())), 0)
		if err1 != nil || err2 != nil {
			return false
		}
		if len(fromText) != n || len(fromBin) != n {
			return false
		}
		for i := 0; i < n; i++ {
			if fromText[i] != in[i] || fromBin[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: RoundRobin preserves every reference of every input stream and
// preserves per-stream order.
func TestQuickRoundRobinPreservesOrder(t *testing.T) {
	f := func(lens []uint8, quantum uint8) bool {
		q := int(quantum%7) + 1
		if len(lens) > 6 {
			lens = lens[:6]
		}
		var streams []Stream
		var want [][]uint64
		for pid, l := range lens {
			n := int(l % 50)
			tr := make(Trace, n)
			seq := make([]uint64, n)
			for i := 0; i < n; i++ {
				addr := uint64(pid)<<32 | uint64(i)
				tr[i] = Ref{Kind: IFetch, Addr: addr, PID: uint16(pid)}
				seq[i] = addr
			}
			streams = append(streams, tr.Stream())
			want = append(want, seq)
		}
		got, err := Collect(RoundRobin(q, streams...), 0)
		if err != nil {
			return false
		}
		perPID := map[uint16][]uint64{}
		for _, r := range got {
			perPID[r.PID] = append(perPID[r.PID], r.Addr)
		}
		total := 0
		for pid, seq := range want {
			gotSeq := perPID[uint16(pid)]
			if len(gotSeq) != len(seq) {
				return false
			}
			for i := range seq {
				if gotSeq[i] != seq[i] {
					return false
				}
			}
			total += len(seq)
		}
		return total == len(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
