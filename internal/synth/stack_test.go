package synth

import (
	"math"
	"slices"
	"testing"
)

// eagerStack is the stack as NewStack built it before stacks settled
// lazily: the whole of rand.Rand.Shuffle's permutation at construction,
// drawn inline. FuzzStackVsEager holds the lazy stack to it.
type eagerStack struct {
	stack []uint32
}

func newEagerStack(lines int, r *rng) *eagerStack {
	st := make([]uint32, lines)
	for i := range st {
		st[i] = uint32(i)
	}
	for i := len(st) - 1; i > 0; i-- {
		n := uint32(i + 1)
		prod := uint64(uint32(r.Int63()>>31)) * uint64(n)
		for low := uint32(prod); low < n && low < -n%n; low = uint32(prod) {
			prod = uint64(uint32(r.Int63()>>31)) * uint64(n)
		}
		j := prod >> 32
		st[i], st[j] = st[j], st[i]
	}
	return &eagerStack{stack: st}
}

func (e *eagerStack) moveToFront(d int) uint32 {
	idx := len(e.stack) - d
	id := e.stack[idx]
	copy(e.stack[idx:], e.stack[idx+1:])
	e.stack[len(e.stack)-1] = id
	return id
}

// FuzzStackVsEager drives a lazy and an eager stack of the same lines and
// seed through one script of depths and compares every id read, the
// contents once the lazy stack is settled whole, and the generator's next
// draw. Each step of the script is three bytes, an op and a 16-bit
// value: the bottom of the stack (a full settle), the top, the last depth
// again, a depth anywhere, or one to four positions below the lowest
// settled one.
func FuzzStackVsEager(f *testing.F) {
	f.Add(uint32(0), int64(1), []byte{0, 0, 0})
	f.Add(uint32(999), int64(7), []byte{4, 0, 0, 4, 0, 1, 2, 0, 0, 4, 0, 3, 1, 0, 0, 3, 0x80, 0, 0, 0, 0})
	for _, seed := range rngSeeds {
		f.Add(uint32(1<<17-1), seed, []byte{3, 0x10, 0, 4, 0, 0, 4, 0, 2, 2, 0, 0, 3, 0xff, 0xff, 1, 0, 0})
	}
	f.Fuzz(func(t *testing.T, lines uint32, seed int64, script []byte) {
		n := int(lines%(1<<17)) + 1
		lr, er := newRNG(seed), newRNG(seed)
		lazy := MustNewStack(StackConfig{Lines: n, Alpha: 1, XM: 1}, lr)
		eager := newEagerStack(n, er)
		if got, want := lr.Int63(), er.Int63(); got != want {
			t.Fatalf("lines %d: draw after construction %#x, want %#x", n, got, want)
		}
		d := 1
		for k := 0; k+2 < len(script) && k < 3*256; k += 3 {
			v := int(script[k+1])<<8 | int(script[k+2])
			switch script[k] % 5 {
			case 0:
				d = n
			case 1:
				d = 1
			case 2:
			case 3:
				d = 1 + int(uint64(v)*uint64(n)>>16)
			case 4:
				d = min(n, n-lazy.settled+1+v%4)
			}
			if got, want := lazy.moveToFront(d), eager.moveToFront(d); got != want {
				t.Fatalf("lines %d, step %d, depth %d: id %d, want %d", n, k/3, d, got, want)
			}
		}
		lazy.settle(0)
		if !slices.Equal(lazy.stack, eager.stack) {
			t.Fatalf("lines %d: settled stack differs from the eager one", n)
		}
		if got, want := lr.Int63(), er.Int63(); got != want {
			t.Fatalf("lines %d: next draw %#x, want %#x", n, got, want)
		}
	})
}

// powDepth is the depth of draw u as math.Pow computes it, clamped in
// float before the conversion.
func powDepth(xm, alpha float64, lines int, u float64) int {
	f := xm * math.Pow(u, -1/alpha)
	if f >= float64(lines) {
		return lines
	}
	return max(int(f), 1)
}

// TestDepthTableMatchesPow: every draw a depth table answers has the depth
// math.Pow gives it, over 10^7 draws of the generator and every float
// within 2^11 ULPs of each boundary and of 1, for the paper mix's
// configurations, a hotter data stack (XM 4), those of the other tests and
// a small Alpha. The table answers every draw above its floor but those in
// its guard bands.
func TestDepthTableMatchesPow(t *testing.T) {
	p := PaperMix(1).Processes[0]
	configs := []StackConfig{
		{Alpha: 1, XM: 1}, {Alpha: 0.8, XM: 1}, {Alpha: 1, XM: 2}, {Alpha: 0.1, XM: 1},
		p.Code, p.Data, {Alpha: 1.2, XM: 4},
	}
	const draws = 10_000_000
	r := newRNG(1)
	for _, c := range configs {
		tab := newDepthTable(c.XM, c.Alpha)
		answered, checked := 0, 0
		check := func(u float64) {
			if !(u > 0 && u < 1) {
				return
			}
			checked++
			d, ok := tab.lookup(u)
			if !ok {
				return
			}
			answered++
			if want := int(c.XM * math.Pow(u, -1/c.Alpha)); d != want {
				t.Fatalf("XM %v, Alpha %v, u %v (%#x): depth %d, want %d", c.XM, c.Alpha, u, math.Float64bits(u), d, want)
			}
		}
		for i := 0; i < draws/len(configs); i++ {
			check(r.Float64())
		}
		if share, want := float64(answered)/float64(checked), 1-tab.floor; math.Abs(share-want) > 1e-3 {
			t.Errorf("XM %v, Alpha %v: table answered %.4f of draws, want %.4f", c.XM, c.Alpha, share, want)
		}
		if c.Alpha > 1 && len(tab.steps) != tableDepths {
			t.Errorf("XM %v, Alpha %v: %d steps, want %d", c.XM, c.Alpha, len(tab.steps), tableDepths)
		}
		edges := []float64{1}
		for k := int(c.XM) + 1; k <= int(c.XM)+len(tab.steps); k++ {
			edges = append(edges, math.Pow(float64(k)/c.XM, -c.Alpha))
		}
		for _, b := range edges {
			for ulp := -1 << 11; ulp <= 1<<11; ulp++ {
				check(math.Float64frombits(uint64(int64(math.Float64bits(b)) + int64(ulp))))
			}
		}
	}
}

// FuzzDepthTable: for any valid XM and Alpha, lines and u in (0, 1), the
// table's depth is the float-clamped math.Pow depth.
func FuzzDepthTable(f *testing.F) {
	f.Add(6.4, 1.2, uint32(196608), math.Float64bits(0.5))
	f.Add(2.0, 1.2, uint32(32768), math.Float64bits(math.Pow(3.0/2, -1.2)))
	f.Add(4.0, 1.2, uint32(32768), math.Float64bits(math.Pow(5.0/4, -1.2)))
	f.Add(1.0, 0.1, uint32(1000), math.Float64bits(0.01))
	f.Add(1.9999999, 1e3, uint32(10), math.Float64bits(1-0x1p-40))
	f.Fuzz(func(t *testing.T, xm, alpha float64, lines uint32, bits uint64) {
		u := math.Float64frombits(bits % math.Float64bits(1))
		if !(xm > 0 && xm <= 1e12 && alpha > 0 && alpha <= 1e6) || u == 0 {
			t.Skip()
		}
		n := int(lines%math.MaxInt32) + 1
		if got, want := newDepthTable(xm, alpha).depth(u, n), powDepth(xm, alpha, n, u); got != want {
			t.Fatalf("XM %v, Alpha %v, lines %d, u %v (%#x): depth %d, want %d", xm, alpha, n, u, math.Float64bits(u), got, want)
		}
	})
}

// TestSampleDepthClampsHugeDepths: with a small Alpha, XM·u^(-1/Alpha)
// passes 2^63 for every u below about 0.0127. Such a draw is the deepest,
// so it must give Lines, as the model's share of depth 1 and of Lines
// says, and not wrap to depth 1.
func TestSampleDepthClampsHugeDepths(t *testing.T) {
	cfg := StackConfig{Lines: 1000, Alpha: 0.1, XM: 1}
	const draws = 200_000
	r, shadow := newRNG(3), newRNG(3)
	s := MustNewStack(cfg, r)
	MustNewStack(cfg, shadow) // leaves shadow where s left r
	var top, bottom int
	for i := 0; i < draws; i++ {
		u := shadow.Float64()
		for u == 0 {
			u = shadow.Float64()
		}
		d := s.sampleDepth()
		if want := powDepth(cfg.XM, cfg.Alpha, cfg.Lines, u); d != want {
			t.Fatalf("draw %d, u %v: depth %d, want %d", i, u, d, want)
		}
		switch d {
		case 1:
			top++
		case cfg.Lines:
			bottom++
		}
	}
	// P(depth 1) = P(u > 2^-Alpha); P(depth Lines) = P(u ≤ Lines^-Alpha).
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"1", float64(top) / draws, 1 - math.Pow(2, -cfg.Alpha)},
		{"Lines", float64(bottom) / draws, math.Pow(float64(cfg.Lines), -cfg.Alpha)},
	} {
		if math.Abs(c.got-c.want) > 0.005 {
			t.Errorf("share of depth %s: %.4f, model %.4f", c.name, c.got, c.want)
		}
	}
}
