// Package retry is the one retry loop for remote calls. Each call site
// keeps its own Policy; the operation marks what retrying cannot fix
// with Permanent, deciding HTTP statuses by Transient.
package retry

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// maxWait caps every wait Do makes before jitter.
const maxWait = 2 * time.Second

// Policy bounds one retried operation.
type Policy struct {
	// Attempts bounds the calls of the operation, the first included.
	Attempts int
	// Base is the wait before the second attempt; each later wait doubles,
	// up to 2 s. A zero Base retries at once.
	Base time.Duration
	// Jitter, when set, returns an extra wait to add to the wait d.
	Jitter func(d time.Duration) time.Duration
}

// permanent marks a failure retrying cannot fix.
type permanent struct{ err error }

func (p *permanent) Error() string { return p.err.Error() }
func (p *permanent) Unwrap() error { return p.err }

// Permanent marks err as a failure that retrying cannot fix: Do returns
// err at once, without the mark. Permanent(nil) is nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanent{err}
}

// Transient reports whether an HTTP status is worth retrying: a server
// error (5xx), 408 Request Timeout or 429 Too Many Requests. Every other
// status is an answer that a second request would only repeat.
func Transient(status int) bool {
	return status >= 500 || status == http.StatusRequestTimeout || status == http.StatusTooManyRequests
}

// Do calls op until it returns nil or a Permanent error, ctx ends, or
// p.Attempts calls have failed, waiting Base, 2·Base, … up to 2 s (plus
// Jitter) between calls. It returns nil, the Permanent error's cause,
// ctx.Err(), or the last failure with the number of attempts made.
func Do(ctx context.Context, p Policy, op func() error) error {
	for attempt := 1; ; attempt++ {
		err := op()
		if err == nil {
			return nil
		}
		if perm := (*permanent)(nil); errors.As(err, &perm) {
			return perm.err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if attempt >= p.Attempts {
			return fmt.Errorf("%w (after %d attempts)", err, attempt)
		}
		if err := p.Wait(ctx, attempt); err != nil {
			return err
		}
	}
}

// Wait sleeps as Do does after the n-th failed attempt in a row:
// Base·2^(n-1), up to 2 s, plus Jitter. It returns ctx.Err() if ctx ends
// first.
func (p Policy) Wait(ctx context.Context, n int) error {
	wait := p.Base
	for ; n > 1 && wait < maxWait; n-- {
		wait *= 2
	}
	wait = min(wait, maxWait)
	d := wait
	if p.Jitter != nil {
		d += p.Jitter(wait)
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d):
		return nil
	}
}
