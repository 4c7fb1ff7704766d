// Package workload generates reference traces by "executing" small,
// well-understood kernels — dense matrix multiply, pointer chasing,
// streaming, and quicksort — and emitting the instruction fetches and data
// references a simple compiled loop would make. Unlike package synth these
// traces are fully deterministic and structured, which makes them good
// example inputs and good stress tests for specific cache behaviours
// (capacity misses, conflict misses, spatial locality, pointer-dependent
// access).
package workload

import (
	"fmt"
	"math/rand"

	"mlcache/internal/trace"
)

const wordBytes = 4

// emitter accumulates a trace, fabricating a plausible instruction stream:
// each "operation" fetches the next instruction of a fixed loop body and
// attaches one data reference.
type emitter struct {
	out      trace.Trace
	pid      uint16
	codeBase uint64
	codeLen  int // loop body length in instructions
	ip       int
}

func newEmitter(pid uint16, codeBase uint64, bodyInstrs int) *emitter {
	return &emitter{pid: pid, codeBase: codeBase, codeLen: bodyInstrs}
}

// op emits one instruction fetch; if data is non-zero it attaches the data
// reference (sharing the cycle).
func (e *emitter) op(data uint64, kind trace.Kind) {
	e.out = append(e.out, trace.Ref{
		Kind: trace.IFetch,
		Addr: e.codeBase + uint64(e.ip)*wordBytes,
		PID:  e.pid,
	})
	e.ip = (e.ip + 1) % e.codeLen
	if data != 0 {
		e.out = append(e.out, trace.Ref{Kind: kind, Addr: data, PID: e.pid})
	}
}

// alu emits a data-free instruction.
func (e *emitter) alu() { e.op(0, trace.Load) }

// MatMulConfig parameterizes a dense matrix multiply C = A × B over n×n
// float64 matrices, the classic capacity-miss workload: for n² beyond the
// cache size, the column walk of B misses persistently.
type MatMulConfig struct {
	N    int
	PID  uint16
	Base uint64 // data segment base; code is placed below it
}

// MatMul generates the trace of a naive i-j-k matrix multiply.
func MatMul(cfg MatMulConfig) (trace.Trace, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("workload: matmul N %d must be positive", cfg.N)
	}
	n := uint64(cfg.N)
	const elem = 8 // float64
	a := cfg.Base
	b := a + n*n*elem
	c := b + n*n*elem
	e := newEmitter(cfg.PID, cfg.Base-4096, 12)
	for i := uint64(0); i < n; i++ {
		for j := uint64(0); j < n; j++ {
			// acc = 0
			e.alu()
			for k := uint64(0); k < n; k++ {
				e.op(a+(i*n+k)*elem, trace.Load) // A[i][k]
				e.op(b+(k*n+j)*elem, trace.Load) // B[k][j]
				e.alu()                          // multiply-accumulate
			}
			e.op(c+(i*n+j)*elem, trace.Store) // C[i][j]
		}
	}
	return e.out, nil
}

// PointerChaseConfig parameterizes a linked-list traversal: nodes are
// scattered through memory and each step loads the next pointer, defeating
// spatial locality entirely — the worst case for long cache blocks.
type PointerChaseConfig struct {
	Nodes int
	Steps int
	Seed  int64
	PID   uint16
	Base  uint64
	// Stride is the node size in bytes (power of two ≥ 8); large strides
	// with power-of-two spacing also provoke conflict misses in
	// direct-mapped caches.
	Stride int
}

// PointerChase generates the trace of a randomized linked-list walk.
func PointerChase(cfg PointerChaseConfig) (trace.Trace, error) {
	if cfg.Nodes <= 0 || cfg.Steps <= 0 {
		return nil, fmt.Errorf("workload: pointer chase nodes %d and steps %d must be positive", cfg.Nodes, cfg.Steps)
	}
	if cfg.Stride < 8 {
		cfg.Stride = 64
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	perm := rng.Perm(cfg.Nodes)
	e := newEmitter(cfg.PID, cfg.Base-4096, 4)
	cur := 0
	for s := 0; s < cfg.Steps; s++ {
		addr := cfg.Base + uint64(perm[cur])*uint64(cfg.Stride)
		e.op(addr, trace.Load) // load next pointer
		e.alu()                // bookkeeping
		cur = (cur + 1) % cfg.Nodes
	}
	return e.out, nil
}

// StreamConfig parameterizes the STREAM-style triad a[i] = b[i] + s*c[i]:
// three long sequential vectors, the best case for spatial locality and a
// pure bandwidth workload.
type StreamConfig struct {
	Elems int
	Iters int
	PID   uint16
	Base  uint64
}

// Stream generates the trace of the triad kernel.
func Stream(cfg StreamConfig) (trace.Trace, error) {
	if cfg.Elems <= 0 || cfg.Iters <= 0 {
		return nil, fmt.Errorf("workload: stream elems %d and iters %d must be positive", cfg.Elems, cfg.Iters)
	}
	const elem = 8
	n := uint64(cfg.Elems)
	// Pad the arrays apart so power-of-two element counts do not alias
	// all three streams onto the same cache sets (real allocators stagger
	// allocations the same way).
	a := cfg.Base
	b := a + n*elem + 128
	c := b + n*elem + 256
	e := newEmitter(cfg.PID, cfg.Base-4096, 6)
	for it := 0; it < cfg.Iters; it++ {
		for i := uint64(0); i < n; i++ {
			e.op(b+i*elem, trace.Load)
			e.op(c+i*elem, trace.Load)
			e.alu()
			e.op(a+i*elem, trace.Store)
		}
	}
	return e.out, nil
}

// QuicksortConfig parameterizes an in-place quicksort over n int64 keys:
// a mix of sequential partition scans and recursive working sets, a
// middle-ground locality profile.
type QuicksortConfig struct {
	N    int
	Seed int64
	PID  uint16
	Base uint64
}

// Quicksort generates the trace of sorting a shuffled array.
func Quicksort(cfg QuicksortConfig) (trace.Trace, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("workload: quicksort N %d must be positive", cfg.N)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	keys := make([]int64, cfg.N)
	for i := range keys {
		keys[i] = rng.Int63()
	}
	const elem = 8
	e := newEmitter(cfg.PID, cfg.Base-4096, 10)
	addr := func(i int) uint64 { return cfg.Base + uint64(i)*elem }

	load := func(i int) int64 {
		e.op(addr(i), trace.Load)
		return keys[i]
	}
	store := func(i int, v int64) {
		e.op(addr(i), trace.Store)
		keys[i] = v
	}

	var sort func(lo, hi int)
	sort = func(lo, hi int) {
		for hi-lo > 1 {
			pivot := load(lo + (hi-lo)/2)
			i, j := lo, hi-1
			for i <= j {
				for load(i) < pivot {
					i++
					e.alu()
				}
				for load(j) > pivot {
					j--
					e.alu()
				}
				if i <= j {
					vi, vj := keys[i], keys[j]
					store(i, vj)
					store(j, vi)
					i++
					j--
				}
			}
			// Recurse on the smaller half, iterate on the larger.
			if j-lo < hi-i {
				sort(lo, j+1)
				lo = i
			} else {
				sort(i, hi)
				hi = j + 1
			}
		}
	}
	sort(0, cfg.N)
	return e.out, nil
}
