package memsys

import (
	"fmt"

	"mlcache/internal/trace"
)

// One-pass grid evaluation: capture and replay of the first-level boundary.
//
// For hierarchies whose first level runs at the CPU rate with demand
// fetching and deterministic (LRU) replacement, the sequence of requests
// crossing the L1→downstream boundary is a pure function of the reference
// trace and the first-level configuration: hits never touch downstream, and
// the CPU time that elapses *between* consecutive downstream requests is
// fixed by the issue model. Everything below the boundary — L2/L3 caches,
// write buffers, the backplane bus, main memory — only ever sees this
// stream. A sweep whose points share the first level can therefore run the
// trace once through a "pivot" configuration while a DownRecorder taps the
// boundary, then reproduce every other point *exactly* by replaying the
// log through that point's real downstream machinery (ReplayDown). The
// replay drives the same fetchBlock/pushVictim code as a full simulation,
// so miss counts, buffer stalls, memory traffic, and execution time are
// bit-identical to simulating the trace end to end — at the cost of one
// event per first-level miss instead of one access per reference.

// Event flags: which downstream interactions one CPU access performed.
const (
	// evFetch: a block fetch (read miss fill, or store write-allocate fill).
	evFetch uint8 = 1 << iota
	// evWriteDown: the store itself propagated down (write-through or
	// no-write-allocate), pushing the first-level block of Addr.
	evWriteDown
	// evVictim: a dirty victim (Victim) entered the downstream write buffer.
	evVictim
	// evStoreAcc: the access was a store — replay re-adds the architectural
	// extra write cycles to the completion time.
	evStoreAcc
)

// DownEvent is one CPU access that crossed the first-level boundary.
type DownEvent struct {
	// Delta is the access's entry time minus the CPU-visible completion
	// time of the previous event (the CPU-deterministic gap between
	// downstream interactions).
	Delta  int64
	Addr   uint64
	Victim uint64
	// Region is the fetch size in bytes (sub-block fills fetch less than a
	// block).
	Region int32
	Flags  uint8
}

// DownLog is the complete boundary trace of one simulation, sufficient to
// reproduce the run on any downstream configuration.
type DownLog struct {
	Events []DownEvent
	// FlipIndex is the event index at which statistics recording turned on
	// (end of warm-up): len(Events) if the flip happened after the last
	// event, -1 if recording never started (trace shorter than warm-up).
	FlipIndex int
	// FlipDelta is measurement-start time minus the completion time of the
	// event preceding the flip.
	FlipDelta int64
	// Tau is the CPU-deterministic tail: end-of-trace time minus the last
	// event's completion time.
	Tau int64
}

// DownRecorder captures a DownLog while a simulation runs. Attach with
// Hierarchy.SetTap before cpu.Run, then call Finish with the run's TimeNS.
type DownRecorder struct {
	events    []DownEvent
	lastOut   int64
	startNS   int64
	flipIndex int
	flipDelta int64

	// pending event, staged by the access path and sealed by commit.
	pendFlags  uint8
	pendAddr   uint64
	pendVictim uint64
	pendRegion int32
}

// NewDownRecorder returns an empty recorder.
func NewDownRecorder() *DownRecorder {
	return &DownRecorder{flipIndex: -1}
}

// MarkRecordingStart notes that statistics recording began at nowNS. Call
// it from cpu.Config.OnRecordingStart (or directly with 0 when there is no
// warm-up).
func (r *DownRecorder) MarkRecordingStart(nowNS int64) {
	r.flipIndex = len(r.events)
	r.flipDelta = nowNS - r.lastOut
	r.startNS = nowNS
}

// pend stages the downstream interactions of the access in flight.
func (r *DownRecorder) pend(flags uint8, addr, victim uint64, hasVictim bool, region int) {
	if hasVictim {
		flags |= evVictim
	}
	r.pendFlags = flags
	r.pendAddr = addr
	r.pendVictim = victim
	r.pendRegion = int32(region)
}

// commit seals the access in flight: in is its entry time, out its
// CPU-visible completion. Accesses that never touched downstream leave no
// event — their time cost is CPU-deterministic and folds into the next
// event's Delta.
func (r *DownRecorder) commit(in, out int64) {
	if r.pendFlags == 0 {
		return
	}
	r.events = append(r.events, DownEvent{
		Delta:  in - r.lastOut,
		Addr:   r.pendAddr,
		Victim: r.pendVictim,
		Region: r.pendRegion,
		Flags:  r.pendFlags,
	})
	r.pendFlags = 0
	r.lastOut = out
}

// Finish seals the log. timeNS is the completed run's Result.TimeNS.
func (r *DownRecorder) Finish(timeNS int64) *DownLog {
	return &DownLog{
		Events:    r.events,
		FlipIndex: r.flipIndex,
		FlipDelta: r.flipDelta,
		Tau:       r.startNS + timeNS - r.lastOut,
	}
}

// SetTap attaches (or, with nil, detaches) a boundary recorder. The tap
// sees every downstream interaction of subsequent accesses; it adds one
// branch per access otherwise. Reset and ResetFor detach any tap.
func (h *Hierarchy) SetTap(r *DownRecorder) { h.tap = r }

// ReplayDown reproduces a captured run on this hierarchy's downstream
// configuration and returns the measured execution time (the TimeNS a full
// simulation of this configuration would report). The hierarchy must be
// freshly constructed or Reset, must not use a TLB, prefetching, or a
// first level slower than the CPU, and must share the capture run's first
// level and CPU cycle time — the planner's classification guarantees all
// of this. interrupt, when non-nil, is polled every few thousand events.
func (h *Hierarchy) ReplayDown(log *DownLog, interrupt func() error) (int64, error) {
	if h.tap != nil {
		return 0, fmt.Errorf("memsys: replay on a hierarchy with a tap attached")
	}
	sfl := h.route(trace.Store)

	var lastOut, startNS int64
	h.SetRecording(false)
	for i := range log.Events {
		if i == log.FlipIndex {
			startNS = lastOut + log.FlipDelta
			h.SetRecording(true)
		}
		if interrupt != nil && i&4095 == 0 {
			if err := interrupt(); err != nil {
				return 0, err
			}
		}
		ev := &log.Events[i]
		now := lastOut + ev.Delta
		done := now
		if ev.Flags&evFetch != 0 {
			org := originRead
			if ev.Flags&evStoreAcc != 0 {
				org = originStore
			}
			done = h.fetchBlock(0, ev.Addr, now, org, int(ev.Region))
		}
		if ev.Flags&evWriteDown != 0 {
			done = maxI64(done, h.pushVictim(0, sfl.cache.BlockAddr(ev.Addr), now))
		}
		if ev.Flags&evVictim != 0 {
			done = maxI64(done, h.pushVictim(0, ev.Victim, now))
		}
		if ev.Flags&evStoreAcc != 0 {
			done += sfl.writeExtra
		}
		lastOut = done
	}
	if log.FlipIndex == len(log.Events) {
		startNS = lastOut + log.FlipDelta
		h.SetRecording(true)
	}
	return lastOut + log.Tau - startNS, nil
}
