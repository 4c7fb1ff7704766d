package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"mlcache/internal/cpu"
	"mlcache/internal/memsys"
)

// Options tunes the fault-tolerant sweep engine.
type Options struct {
	// PointTimeout bounds one simulation attempt; 0 means no limit. A
	// point that exceeds it fails with context.DeadlineExceeded (wrapped
	// in its Result.Err) without disturbing the rest of the grid.
	PointTimeout time.Duration
	// Retries is the number of extra attempts for a failed point. Grid
	// cancellation is never retried; everything else (including panics,
	// which may be environmental) is, up to this budget.
	Retries int
	// Backoff is the wait before the first retry, doubling per attempt.
	Backoff time.Duration
	// Skip, when non-nil, is consulted before simulating a point; true
	// marks the point's Result as Skipped without running it. The resume
	// path uses this to avoid re-simulating journaled points.
	Skip func(Point) bool
	// OnResult, when non-nil, is called once per completed (non-skipped)
	// point as soon as it finishes, in completion order. Calls are
	// serialized; the checkpoint journal hangs off this hook.
	OnResult func(Result)
}

// PanicError is a panic inside one point's simulation, converted into an
// ordinary per-point error so one faulty configuration cannot take down the
// whole sweep.
type PanicError struct {
	Point Point
	Value any
	Stack []byte
}

// Error describes the panic; the captured stack is in Stack.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sweep: point %v panicked: %v", e.Point, e.Value)
}

// workerState is what a worker keeps between its points: one hierarchy.
type workerState struct {
	h *memsys.Hierarchy
}

// hierarchy returns a hierarchy for cfg: a new one from memsys.New for the
// worker's first point, and its previous one, reset for cfg by ResetFor,
// for every later point, whatever its geometry.
func (ws *workerState) hierarchy(cfg memsys.Config) (*memsys.Hierarchy, error) {
	if ws.h == nil {
		h, err := memsys.New(cfg)
		if err != nil {
			return nil, err
		}
		ws.h = h
		return h, nil
	}
	if err := ws.h.ResetFor(cfg); err != nil {
		return nil, err
	}
	return ws.h, nil
}

// attemptFunc is one attempt's work on a point; interrupt reports the
// grid's cancellation or the attempt's timeout.
type attemptFunc func(interrupt func() error) (cpu.Result, error)

// runPoint evaluates one point, filling res in place: attempts run until
// one succeeds, the retry budget is spent, or ctx ends, with a doubling
// backoff between them. An attempt already recorded in res (a Configure
// panic during classification) counts against the budget.
func runPoint(ctx context.Context, opts Options, ws *workerState, res *Result, work attemptFunc) {
	backoff := opts.Backoff
	for {
		if res.Attempts > 0 {
			// The previous attempt failed. The grid being cancelled is not
			// a per-point fault; don't burn retries on it.
			if ctx.Err() != nil || res.Attempts > opts.Retries {
				return
			}
			if backoff > 0 {
				t := time.NewTimer(backoff)
				select {
				case <-ctx.Done():
					t.Stop()
					return
				case <-t.C:
				}
				backoff *= 2
			}
		}
		if err := ctx.Err(); err != nil {
			if res.Err == nil {
				res.Err = err
			}
			return
		}
		res.Attempts++
		run, err := ws.attempt(ctx, opts.PointTimeout, res.Point, work)
		if err == nil {
			res.Run, res.Err = run, nil
			return
		}
		res.Err = fmt.Errorf("sweep: point %v: %w", res.Point, err)
	}
}

// attempt performs one attempt at pt, converting a panic into a
// *PanicError and bounding it by timeout through work's interrupt, which
// the CPU loop and the replay poll once per batch.
func (ws *workerState) attempt(ctx context.Context, timeout time.Duration, pt Point, work attemptFunc) (run cpu.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			// A panic may have left the cached hierarchy mid-update; drop
			// it so the retry (and later points) start from clean state.
			ws.h = nil
			err = &PanicError{Point: pt, Value: p, Stack: debug.Stack()}
		}
	}()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return work(ctx.Err)
}

// Canceled reports whether a per-point error is (or wraps) a context
// cancellation or deadline rather than a simulation fault.
func Canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
