package retry

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"
)

var errFlaky = errors.New("flaky")

// TestDoSpendsTheAttempts: a failure that never clears costs exactly
// Attempts calls, and the error names both the failure and the count.
func TestDoSpendsTheAttempts(t *testing.T) {
	for _, attempts := range []int{1, 2, 5, 9} {
		calls := 0
		err := Do(context.Background(), Policy{Attempts: attempts}, func() error {
			calls++
			return errFlaky
		})
		if calls != attempts {
			t.Errorf("Attempts %d: op called %d times", attempts, calls)
		}
		if !errors.Is(err, errFlaky) || !strings.Contains(err.Error(), fmt.Sprintf("after %d attempts", attempts)) {
			t.Errorf("Attempts %d: error %v", attempts, err)
		}
	}
}

// TestDoReturnsOnSuccess: the loop stops at the first nil.
func TestDoReturnsOnSuccess(t *testing.T) {
	calls := 0
	err := Do(context.Background(), Policy{Attempts: 9}, func() error {
		calls++
		if calls < 3 {
			return errFlaky
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err %v after %d calls, want nil after 3", err, calls)
	}
}

// TestDoStopsAtPermanent: a Permanent error, bare or wrapped, ends the
// loop at once and comes back without the mark.
func TestDoStopsAtPermanent(t *testing.T) {
	cause := errors.New("404")
	for name, wrap := range map[string]func(error) error{
		"bare":    Permanent,
		"wrapped": func(err error) error { return fmt.Errorf("get: %w", Permanent(err)) },
	} {
		calls := 0
		err := Do(context.Background(), Policy{Attempts: 9}, func() error {
			calls++
			if calls == 2 {
				return wrap(cause)
			}
			return errFlaky
		})
		if calls != 2 {
			t.Errorf("%s: op called %d times, want 2", name, calls)
		}
		if err != cause {
			t.Errorf("%s: Do returned %#v, want the cause itself", name, err)
		}
	}
	if Permanent(nil) != nil {
		t.Error("Permanent(nil) is not nil")
	}
}

// TestDoCancelledDuringWait: a ctx that ends while Do waits returns
// ctx.Err() at once, not after the wait.
func TestDoCancelledDuringWait(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	calls := 0
	err := Do(ctx, Policy{Attempts: 9, Base: time.Hour}, func() error {
		calls++
		time.AfterFunc(10*time.Millisecond, cancel)
		return errFlaky
	})
	if err != context.Canceled {
		t.Fatalf("Do returned %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("op called %d times, want 1", calls)
	}
	if took := time.Since(start); took >= maxWait {
		t.Fatalf("Do took %v to notice the cancellation", took)
	}
}

// TestDoEndedContext: a failure under an ended ctx returns ctx.Err(),
// whatever attempts are left.
func TestDoEndedContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := Do(ctx, Policy{Attempts: 9}, func() error {
		calls++
		return errFlaky
	})
	if err != context.Canceled || calls != 1 {
		t.Fatalf("err %v after %d calls, want context.Canceled after 1", err, calls)
	}
}

// TestDoWaitsDoubleToCap records each wait through Jitter: Base, then
// doubling, then 2 s for every later wait, so 1.6 s is followed by 2 s,
// not 3.2 s. Jitter returns -d, so the test sleeps none of them.
func TestDoWaitsDoubleToCap(t *testing.T) {
	var waits []time.Duration
	record := func(d time.Duration) time.Duration {
		waits = append(waits, d)
		return -d
	}
	ms := time.Millisecond
	for _, tc := range []struct {
		base time.Duration
		want []time.Duration
	}{
		{100 * ms, []time.Duration{100 * ms, 200 * ms, 400 * ms, 800 * ms, 1600 * ms, maxWait, maxWait, maxWait}},
		{3 * time.Second, []time.Duration{maxWait, maxWait, maxWait, maxWait, maxWait, maxWait, maxWait, maxWait}},
	} {
		waits = nil
		Do(context.Background(), Policy{Attempts: 9, Base: tc.base, Jitter: record}, func() error { return errFlaky })
		if !slices.Equal(waits, tc.want) {
			t.Errorf("Base %v: waits %v, want %v", tc.base, waits, tc.want)
		}
	}
	if maxWait != 2*time.Second {
		t.Fatalf("waits stop at %v, want 2s", maxWait)
	}
}

// TestDoZeroBaseRetriesAtOnce: with no Base every wait is zero.
func TestDoZeroBaseRetriesAtOnce(t *testing.T) {
	var waits []time.Duration
	calls := 0
	start := time.Now()
	Do(context.Background(), Policy{Attempts: 5,
		Jitter: func(d time.Duration) time.Duration {
			waits = append(waits, d)
			return 0
		}}, func() error {
		calls++
		return errFlaky
	})
	if calls != 5 || !slices.Equal(waits, make([]time.Duration, 4)) {
		t.Fatalf("%d calls, waits %v; want 5 calls and four zero waits", calls, waits)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("zero-Base retries took %v", took)
	}
}

func TestTransient(t *testing.T) {
	for _, tc := range []struct {
		status int
		want   bool
	}{
		{http.StatusOK, false},
		{http.StatusPartialContent, false},
		{http.StatusMovedPermanently, false},
		{http.StatusBadRequest, false},
		{http.StatusUnauthorized, false},
		{http.StatusForbidden, false},
		{http.StatusNotFound, false},
		{http.StatusMethodNotAllowed, false},
		{http.StatusRequestTimeout, true},
		{http.StatusGone, false},
		{http.StatusRequestedRangeNotSatisfiable, false},
		{http.StatusUnprocessableEntity, false},
		{http.StatusTooManyRequests, true},
		{http.StatusInternalServerError, true},
		{http.StatusBadGateway, true},
		{http.StatusServiceUnavailable, true},
		{http.StatusGatewayTimeout, true},
		{599, true},
	} {
		if got := Transient(tc.status); got != tc.want {
			t.Errorf("Transient(%d) = %v, want %v", tc.status, got, tc.want)
		}
	}
}
