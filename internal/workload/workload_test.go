package workload

import (
	"testing"

	"mlcache/internal/cache"
	"mlcache/internal/trace"
)

func runThrough(t *testing.T, tr trace.Trace, sizeKB int64, blockBytes int) cache.Stats {
	t.Helper()
	c := cache.MustNew(cache.Config{
		Name: "probe", SizeBytes: sizeKB * 1024, BlockBytes: blockBytes, Assoc: 2,
		Repl: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
	})
	for _, r := range tr {
		c.Access(r.Addr, r.Kind == trace.Store)
	}
	return c.Stats()
}

func dataMissRatio(t *testing.T, tr trace.Trace, sizeKB int64, blockBytes int) float64 {
	t.Helper()
	// Probe data references only so instruction fetches don't dilute it.
	var data trace.Trace
	for _, r := range tr {
		if r.Kind != trace.IFetch {
			data = append(data, r)
		}
	}
	s := runThrough(t, data, sizeKB, blockBytes)
	return float64(s.ReadMisses+s.WriteMisses) / float64(s.ReadRefs+s.WriteRefs)
}

func TestMatMulValidation(t *testing.T) {
	if _, err := MatMul(MatMulConfig{N: 0}); err == nil {
		t.Error("N=0 accepted")
	}
}

func TestMatMulShape(t *testing.T) {
	tr, err := MatMul(MatMulConfig{N: 8, Base: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var c trace.Counts
	for _, r := range tr {
		c.Add(r.Kind)
	}
	// n^3 iterations with 2 loads each; n^2 stores.
	if c.Load != 2*8*8*8 {
		t.Errorf("loads = %d, want %d", c.Load, 2*8*8*8)
	}
	if c.Store != 8*8 {
		t.Errorf("stores = %d, want %d", c.Store, 8*8)
	}
	if c.IFetch == 0 {
		t.Error("no instruction fetches")
	}
}

// TestMatMulCapacityEffect: a matrix working set that fits in the cache has
// a far lower miss ratio than one that does not.
func TestMatMulCapacityEffect(t *testing.T) {
	small, err := MatMul(MatMulConfig{N: 16, Base: 1 << 20}) // 3*16²*8 = 6 KB
	if err != nil {
		t.Fatal(err)
	}
	big, err := MatMul(MatMulConfig{N: 64, Base: 1 << 20}) // 3*64²*8 = 96 KB
	if err != nil {
		t.Fatal(err)
	}
	mSmall := dataMissRatio(t, small, 16, 32)
	mBig := dataMissRatio(t, big, 16, 32)
	if mSmall >= mBig/4 {
		t.Errorf("fitting matmul miss %.4f, overflowing %.4f: want clear separation", mSmall, mBig)
	}
}

func TestPointerChaseValidation(t *testing.T) {
	if _, err := PointerChase(PointerChaseConfig{Nodes: 0, Steps: 10}); err == nil {
		t.Error("Nodes=0 accepted")
	}
	if _, err := PointerChase(PointerChaseConfig{Nodes: 10, Steps: 0}); err == nil {
		t.Error("Steps=0 accepted")
	}
}

// TestPointerChaseDefeatsSpatialLocality: with 64-byte strides, larger
// blocks do not help the chase (identical or worse miss count), while they
// do help the stream kernel.
func TestPointerChaseDefeatsSpatialLocality(t *testing.T) {
	chase, err := PointerChase(PointerChaseConfig{
		Nodes: 4096, Steps: 40000, Seed: 1, Base: 1 << 20, Stride: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := Stream(StreamConfig{Elems: 8192, Iters: 3, Base: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	chase16 := dataMissRatio(t, chase, 8, 16)
	chase64 := dataMissRatio(t, chase, 8, 64)
	stream16 := dataMissRatio(t, stream, 8, 16)
	stream64 := dataMissRatio(t, stream, 8, 64)
	if chase64 < chase16*0.9 {
		t.Errorf("larger blocks helped the chase: 16B %.4f vs 64B %.4f", chase16, chase64)
	}
	if stream64 > stream16*0.5 {
		t.Errorf("larger blocks failed to help stream: 16B %.4f vs 64B %.4f", stream16, stream64)
	}
}

func TestStreamValidation(t *testing.T) {
	if _, err := Stream(StreamConfig{Elems: 0, Iters: 1}); err == nil {
		t.Error("Elems=0 accepted")
	}
	if _, err := Stream(StreamConfig{Elems: 1, Iters: 0}); err == nil {
		t.Error("Iters=0 accepted")
	}
}

func TestStreamShape(t *testing.T) {
	tr, err := Stream(StreamConfig{Elems: 100, Iters: 2, Base: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var c trace.Counts
	for _, r := range tr {
		c.Add(r.Kind)
	}
	if c.Load != 400 || c.Store != 200 {
		t.Errorf("loads=%d stores=%d, want 400/200", c.Load, c.Store)
	}
}

func TestQuicksortValidation(t *testing.T) {
	if _, err := Quicksort(QuicksortConfig{N: 0}); err == nil {
		t.Error("N=0 accepted")
	}
}

// TestQuicksortActuallySorts: the trace generator embeds a real quicksort;
// verify it by replaying the comparisons on a copy.
func TestQuicksortActuallySorts(t *testing.T) {
	// Run the generator twice with the same seed: determinism.
	tr1, err := Quicksort(QuicksortConfig{N: 500, Seed: 9, Base: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := Quicksort(QuicksortConfig{N: 500, Seed: 9, Base: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr1) != len(tr2) {
		t.Fatalf("nondeterministic trace lengths %d vs %d", len(tr1), len(tr2))
	}
	for i := range tr1 {
		if tr1[i] != tr2[i] {
			t.Fatalf("nondeterministic trace at %d", i)
		}
	}
	// All data references stay within the array.
	base, limit := uint64(1<<20), uint64(1<<20)+500*8
	for _, r := range tr1 {
		if r.Kind == trace.IFetch {
			continue
		}
		if r.Addr < base || r.Addr >= limit {
			t.Fatalf("data ref %#x outside array [%#x,%#x)", r.Addr, base, limit)
		}
	}
}

// TestLocalityOrdering: quicksort reuses its working set (best miss
// ratio), stream gets only spatial locality (miss ≈ elem/block per access),
// and the random pointer chase gets neither (worst).
func TestLocalityOrdering(t *testing.T) {
	qs, err := Quicksort(QuicksortConfig{N: 16384, Seed: 3, Base: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Stream(StreamConfig{Elems: 16384, Iters: 2, Base: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := PointerChase(PointerChaseConfig{Nodes: 16384, Steps: 60000, Seed: 3, Base: 1 << 20, Stride: 64})
	if err != nil {
		t.Fatal(err)
	}
	mQS := dataMissRatio(t, qs, 16, 32)
	mST := dataMissRatio(t, st, 16, 32)
	mPC := dataMissRatio(t, pc, 16, 32)
	if !(mQS < mST && mST < mPC) {
		t.Errorf("locality ordering violated: quicksort %.4f, stream %.4f, chase %.4f", mQS, mST, mPC)
	}
}

func TestBundlesWellFormed(t *testing.T) {
	trs := map[string]trace.Trace{}
	var err error
	if trs["matmul"], err = MatMul(MatMulConfig{N: 6, Base: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	if trs["chase"], err = PointerChase(PointerChaseConfig{Nodes: 64, Steps: 100, Base: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	if trs["stream"], err = Stream(StreamConfig{Elems: 50, Iters: 1, Base: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	if trs["qsort"], err = Quicksort(QuicksortConfig{N: 50, Base: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	for name, tr := range trs {
		prevIFetch := false
		for i, r := range tr {
			if r.Kind != trace.IFetch && !prevIFetch {
				t.Errorf("%s: ref %d is a data reference without preceding ifetch", name, i)
				break
			}
			prevIFetch = r.Kind == trace.IFetch
		}
	}
}
