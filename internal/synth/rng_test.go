package synth

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mlcache/internal/trace"
)

// rngSeeds include 0 (which math/rand seeds specially), a negative seed
// and one beyond 2^31.
var rngSeeds = []int64{0, 1, 2, 7, 42, 99, -5, 1 << 40}

// TestRNGReplicatesMathRand: every draw the generator makes equals the one
// rand.New(rand.NewSource(seed)) makes, over 10^5 draws of each kind and
// 10^5 interleaved ones per seed. The raw check compares the full 64-bit
// source output behind each Int63 with rand.Source64.Uint64.
func TestRNGReplicatesMathRand(t *testing.T) {
	const draws = 100_000
	for _, seed := range rngSeeds {
		src := rand.NewSource(seed).(rand.Source64)
		r := newRNG(seed)
		for i := 0; i < draws; i++ {
			got := r.Int63()
			if want := src.Uint64(); r.w[r.pos-1] != want || got != int64(want&(1<<63-1)) {
				t.Fatalf("seed %d, output %d: %#x (Int63 %#x), want %#x", seed, i, r.w[r.pos-1], got, want)
			}
		}
		// Each draw as the bits of its value.
		kinds := []struct {
			name string
			draw func(*rng) uint64
			want func(*rand.Rand) uint64
		}{
			{"Int63", func(r *rng) uint64 { return uint64(r.Int63()) }, func(r *rand.Rand) uint64 { return uint64(r.Int63()) }},
			{"Float64", func(r *rng) uint64 { return math.Float64bits(r.Float64()) }, func(r *rand.Rand) uint64 { return math.Float64bits(r.Float64()) }},
			{"Intn(4)", func(r *rng) uint64 { return uint64(r.Intn(4)) }, func(r *rand.Rand) uint64 { return uint64(r.Intn(4)) }},
		}
		for _, k := range kinds {
			r, want := newRNG(seed), rand.New(rand.NewSource(seed))
			for i := 0; i < draws; i++ {
				if got, w := k.draw(r), k.want(want); got != w {
					t.Fatalf("seed %d, %s draw %d: %#x, want %#x", seed, k.name, i, got, w)
				}
			}
		}
		r, want := newRNG(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < draws; i++ {
			k := kinds[(i*7+i/5)%len(kinds)]
			if got, w := k.draw(r), k.want(want); got != w {
				t.Fatalf("seed %d, interleaved draw %d (%s): %#x, want %#x", seed, i, k.name, got, w)
			}
		}
	}
}

// TestNewStackReplicatesShuffle: a new stack, settled, holds the permutation
// rand.Rand.Shuffle makes of the identity, and leaves its generator where
// Shuffle leaves math/rand's. The largest size makes 196607 draws of
// Shuffle's rejection-sampled int31n per seed.
func TestNewStackReplicatesShuffle(t *testing.T) {
	for _, n := range []int{1, 2, 3, 1000, 32768, 196608} {
		for _, seed := range rngSeeds {
			want := rand.New(rand.NewSource(seed))
			perm := make([]uint32, n)
			for i := range perm {
				perm[i] = uint32(i)
			}
			want.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			r := newRNG(seed)
			s := MustNewStack(StackConfig{Lines: n, Alpha: 1, XM: 1}, r)
			s.settle(0)
			if !slices.Equal(s.stack, perm) {
				t.Fatalf("n %d, seed %d: permutation differs from rand.Shuffle's", n, seed)
			}
			if got, w := r.Int63(), want.Int63(); got != w {
				t.Fatalf("n %d, seed %d: next draw %#x, want %#x", n, seed, got, w)
			}
		}
	}
}

// fieldDigest hashes references field by field (Kind, Addr, PID):
// trace.Ref has padding bytes, so a hash of its memory is not stable.
func fieldDigest(refs []trace.Ref) string {
	h := sha256.New()
	var b [11]byte
	for _, r := range refs {
		b[0] = byte(r.Kind)
		binary.LittleEndian.PutUint64(b[1:9], r.Addr)
		binary.LittleEndian.PutUint16(b[9:11], r.PID)
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGeneratorOutputPinned: the generated workloads are byte-identical to
// the ones the generator produced when it drew through *rand.Rand. At 100k
// references every process of the paper mix is scheduled. The in-place
// fill and PaperArena equal the stream.
func TestGeneratorOutputPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		mix  MixConfig
		n    int64
		want string
	}{
		{"seed 1", PaperMix(1), 100_000, "b58df8556922d3f8b7b9abdb538019c6555812dcabcdd02eda4ae77f7e9d6c1f"},
		{"seed 2", PaperMix(2), 100_000, "ac216ff5742c37a219a94260c89835b8d08d6f9ccf6490abf866f3b2a3a5a8f7"},
		{"seed 3", PaperMix(3), 100_000, "f7bc171de91a5311efd0ef6fa67116d984b18ed94ce9be43269d87e12aff4989"},
	} {
		streamed, err := trace.Collect(trace.Limit(MustNewMix(c.mix), c.n), 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := fieldDigest(streamed); got != c.want {
			t.Errorf("%s: stream digest %s, want %s", c.name, got, c.want)
		}
		filled := make([]trace.Ref, c.n)
		MustNewMix(c.mix).Fill(filled)
		if !slices.Equal(filled, streamed) {
			t.Errorf("%s: Fill differs from the stream", c.name)
		}
		arena, err := PaperArena(c.mix.Seed, c.n)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(arena.Refs(), streamed) {
			t.Errorf("%s: PaperArena differs from Materialize(PaperStream)", c.name)
		}
	}
}

// TestUnscheduledProcessNeverStarts: a process the schedule has not
// reached has built no stacks. Seed 3's first 25k references come from
// fewer than all four processes.
func TestUnscheduledProcessNeverStarts(t *testing.T) {
	m := MustNewMix(PaperMix(3))
	refs := make([]trace.Ref, 25_000)
	m.Fill(refs)
	scheduled := map[uint16]bool{}
	for _, r := range refs {
		scheduled[r.PID] = true
	}
	if len(scheduled) == len(m.procs) {
		t.Fatalf("all %d processes scheduled; the test needs a shorter prefix", len(m.procs))
	}
	for _, p := range m.procs {
		if started := p.code != nil || p.data != nil; started != scheduled[p.cfg.PID] {
			t.Errorf("process %d: stacks built %v, scheduled %v", p.cfg.PID, started, scheduled[p.cfg.PID])
		}
	}
}

func TestPaperArenaRefusesBadLengths(t *testing.T) {
	for _, n := range []int64{0, -1, MaxArenaRefs + 1} {
		if a, err := PaperArena(1, n); err == nil {
			t.Errorf("PaperArena(1, %d) returned %d references", n, a.Len())
		}
	}
	a, err := PaperArena(1, 1)
	if err != nil || a.Len() != 1 {
		t.Fatalf("PaperArena(1, 1): %v", err)
	}
}
