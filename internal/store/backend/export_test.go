package backend

import (
	"testing"
	"time"
)

// ShortenRetryWaits starts the waits of the package's retry policies at
// 100 µs until t ends, so a 9-attempt budget waits about 25 ms in all.
// Attempt counts stay as they are, so a test still sees each call site's
// real budget.
func ShortenRetryWaits(t testing.TB) { SetRetryBase(t, 100*time.Microsecond) }

// SetRetryBase starts the waits of the package's retry policies at base
// until t ends, keeping their attempt counts.
func SetRetryBase(t testing.TB, base time.Duration) {
	get, s3 := httpGetPolicy, s3Policy
	httpGetPolicy.Base, s3Policy.Base = base, base
	t.Cleanup(func() { httpGetPolicy, s3Policy = get, s3 })
}
