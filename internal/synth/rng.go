package synth

import "math/rand"

// rand.NewSource's generator is the additive lagged-Fibonacci recurrence
// x_t = x_{t-rngLen} + x_{t-rngTap} (mod 2^64).
const (
	rngLen = 607
	rngTap = 273
)

// rng reproduces rand.New(rand.NewSource(seed)) draw for draw, for exactly
// the draws this package makes (newStack makes rand.Rand.Shuffle's from
// Int63), without the rand.Source interface call behind each one. Every
// generated trace, and so every golden output of the simulator, is pinned
// to math/rand's stream: the generator family cannot change without moving
// them all, only the cost of drawing from it.
type rng struct {
	// w is the current block of rngLen outputs, oldest first; pos is the
	// next one to return.
	w   [rngLen]uint64
	pos uint
}

// newRNG seeds the window with rand.NewSource(seed)'s first rngLen
// outputs, reusing its seeding procedure rather than repeating it.
func newRNG(seed int64) *rng {
	src := rand.NewSource(seed).(rand.Source64)
	r := new(rng)
	for k := range r.w {
		r.w[k] = src.Uint64()
	}
	return r
}

// refill replaces the window with the next rngLen outputs, in place:
// output t+rngLen is output t plus output t+rngLen-rngTap, which for
// k < rngTap is still in the window and for the rest was just written.
// It runs once per rngLen draws; kept out of line, it leaves Int63 small
// enough to inline.
//
//go:noinline
func (r *rng) refill() {
	w := &r.w
	for k := 0; k < rngTap; k++ {
		w[k] += w[k+rngLen-rngTap]
	}
	for k := rngTap; k < rngLen; k++ {
		w[k] += w[k-rngTap]
	}
	r.pos = 0
}

// Int63 is rand.Rand.Int63: the source's next output without its top
// bit, which no draw of this package uses. It is the one draw the others
// build on, written to stay within the inlining budget.
func (r *rng) Int63() int64 {
	if r.pos >= rngLen {
		r.refill()
	}
	r.pos++
	return int64(r.w[r.pos-1] & (1<<63 - 1))
}

// Float64 is rand.Rand.Float64, including its redraw of the value that
// rounds up to 1.
func (r *rng) Float64() float64 {
	for {
		if f := float64(r.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Intn is rand.Rand.Intn for n a power of two no larger than 2^30, the
// only kind this package draws; it takes Int31n's masking path.
func (r *rng) Intn(n int) int {
	if n <= 0 || n > 1<<30 || n&(n-1) != 0 {
		panic("synth: rng.Intn needs a power of two")
	}
	return int(int32(r.Int63()>>32) & int32(n-1))
}

// int31n is rand.Rand.Shuffle's draw of j in [0, n) for n < 2^31
// (rand.Rand.int31n): Lemire's multiply-shift over Uint32, redrawing while
// the low half falls below 2^32 mod n. Like math/rand, it computes that
// bound only for a low half below n, which every smaller one is.
func (r *rng) int31n(n uint32) uint32 {
	prod := uint64(uint32(r.Int63()>>31)) * uint64(n)
	for low := uint32(prod); low < n && low < -n%n; low = uint32(prod) {
		prod = uint64(uint32(r.Int63()>>31)) * uint64(n)
	}
	return uint32(prod >> 32)
}

// skipShuffle leaves r where rand.Rand.Shuffle of n elements leaves it: past
// one int31n(i+1) for each i from n-1 down to 1, rejected draws included,
// with each draw tested as int31n tests it but no j computed. It reads the
// window directly, refilling it as Int63 would.
func (r *rng) skipShuffle(n int) {
	i, pos := uint32(max(n, 1)-1), r.pos
	for i > 0 {
		if pos >= rngLen {
			r.refill()
			pos = 0
		}
		for ; pos < rngLen && i > 0; pos++ {
			// The low half of Lemire's product, as uint32 arithmetic
			// keeps it; Int63's dropped top bit is above the 32 used.
			n := i + 1
			if low := uint32(r.w[pos]>>31) * n; low < n && low < -n%n {
				continue
			}
			i--
		}
	}
	r.pos = pos
}
