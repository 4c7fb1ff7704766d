package coord

import (
	"context"
	"errors"
	"testing"
	"time"

	"mlcache/internal/cpu"
	"mlcache/internal/sweep"
)

// State-machine tests drive the coordinator directly (no HTTP, no
// simulations) under a fake clock, so lease expiry, backoff, exclusion,
// and speculation are tested deterministically.

func stateTestSpec() JobSpec {
	return JobSpec{
		SizesBytes: []int64{8192, 16384, 32768},
		CyclesNS:   []int64{20, 30},
		Assoc:      1,
		L1KB:       4,
		Refs:       1000,
		Seed:       1,
	} // 6 grid points
}

type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_000_000, 0)} }
func testCoord(t *testing.T, cfg Config) (*Coordinator, *fakeClock) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	c.now = clk.now
	return c, clk
}

func mustLease(t *testing.T, c *Coordinator, worker string) LeaseResponse {
	t.Helper()
	lr, err := c.Lease(LeaseRequest{Worker: worker})
	if err != nil {
		t.Fatalf("lease for %s: %v", worker, err)
	}
	return lr
}

func shardResults(c *Coordinator, shard int) []PointResult {
	var out []PointResult
	for i := shard; i < len(c.pts); i += c.cfg.Shards {
		out = append(out, PointResult{Index: i})
	}
	return out
}

func TestLeaseGrantIsIdempotent(t *testing.T) {
	c, _ := testCoord(t, Config{Job: stateTestSpec(), Shards: 2, LeaseTTL: time.Second})
	a := mustLease(t, c, "w1")
	if a.Done || a.WaitMS > 0 {
		t.Fatalf("first lease = %+v, want a grant", a)
	}
	b := mustLease(t, c, "w1")
	if b.Shard != a.Shard || b.Lease != a.Lease {
		t.Fatalf("re-lease = %+v, want the outstanding grant %+v", b, a)
	}
	// A second worker gets the other shard, not a duplicate.
	w2 := mustLease(t, c, "w2")
	if w2.Shard == a.Shard {
		t.Fatalf("w2 granted w1's shard %d", a.Shard)
	}
}

func TestLeaseExpiryExcludesAndBacksOff(t *testing.T) {
	cfg := Config{
		Job: stateTestSpec(), Shards: 2,
		LeaseTTL: time.Second, RetryBase: 200 * time.Millisecond, RetryMax: time.Second,
		SpeculateAfter: -1,
	}
	c, clk := testCoord(t, cfg)
	a := mustLease(t, c, "w1")

	// TTL passes with no heartbeat: the shard is reassignable, but not to
	// w1 (excluded) and not before the backoff gate.
	clk.advance(1100 * time.Millisecond)
	b := mustLease(t, c, "w2")
	if b.Shard == a.Shard {
		t.Fatalf("w2 got shard %d before its retry backoff elapsed", a.Shard)
	}
	// Past the worst-case first backoff (base + 50%), a fresh worker gets
	// the failed shard; w1 stays excluded while others are live.
	clk.advance(400 * time.Millisecond)
	w1again := mustLease(t, c, "w1")
	if !w1again.Done && w1again.WaitMS == 0 && w1again.Shard == a.Shard {
		t.Fatalf("excluded worker w1 was re-granted shard %d while w2/w3 are live", a.Shard)
	}
	w3 := mustLease(t, c, "w3")
	if w3.WaitMS > 0 || w3.Shard != a.Shard {
		t.Fatalf("w3 lease = %+v, want the expired shard %d", w3, a.Shard)
	}
	if w3.Lease == a.Lease {
		t.Fatal("reassigned shard kept the old fencing token")
	}
}

func TestExpiredLeaseHeartbeatCancels(t *testing.T) {
	c, clk := testCoord(t, Config{Job: stateTestSpec(), Shards: 2, LeaseTTL: time.Second})
	a := mustLease(t, c, "w1")
	hb, err := c.Heartbeat(HeartbeatRequest{Worker: "w1", Shard: a.Shard, Lease: a.Lease})
	if err != nil || hb.Cancel {
		t.Fatalf("live heartbeat = %+v, %v; want no cancel", hb, err)
	}
	clk.advance(2 * time.Second)
	hb, err = c.Heartbeat(HeartbeatRequest{Worker: "w1", Shard: a.Shard, Lease: a.Lease})
	if err != nil || !hb.Cancel {
		t.Fatalf("post-expiry heartbeat = %+v, %v; want cancel", hb, err)
	}
}

func TestReleaseReassignsImmediatelyAndRelaxesExclusion(t *testing.T) {
	cfg := Config{
		Job: stateTestSpec(), Shards: 2,
		LeaseTTL: time.Minute, RetryBase: 100 * time.Millisecond, RetryMax: time.Second,
		SpeculateAfter: -1,
	}
	c, clk := testCoord(t, cfg)
	a := mustLease(t, c, "w1")
	if _, err := c.Release(ReleaseRequest{Worker: "w1", Shard: a.Shard, Lease: a.Lease, Reason: "poison point"}); err != nil {
		t.Fatal(err)
	}
	// w1 is excluded from the released shard, so it gets the other one.
	b := mustLease(t, c, "w1")
	if b.Shard == a.Shard {
		t.Fatalf("releasing worker was immediately re-granted shard %d", a.Shard)
	}
	// w1 is the only live worker; once the backoff passes, exclusion must
	// relax rather than stall the grid. (Finish shard b first so w1 is
	// idle.)
	if _, err := c.Complete(CompleteRequest{Worker: "w1", Shard: b.Shard, Lease: b.Lease, Results: shardResults(c, b.Shard)}); err != nil {
		t.Fatal(err)
	}
	clk.advance(2 * time.Second)
	again := mustLease(t, c, "w1")
	if again.WaitMS > 0 || again.Done || again.Shard != a.Shard {
		t.Fatalf("lone worker lease = %+v, want relaxed re-grant of shard %d", again, a.Shard)
	}
}

func TestFirstWriterWinsNoDoubleCount(t *testing.T) {
	merged := map[string]int{}
	c, err := New(Config{
		Job: stateTestSpec(), Shards: 1, LeaseTTL: time.Minute,
		OnResult: func(pt sweep.Point, _ cpu.Result) { merged[pt.String()]++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	c.now = clk.now
	a := mustLease(t, c, "w1")

	// The same point arrives via heartbeat twice, then again in the final
	// upload: merged exactly once.
	one := []PointResult{{Index: 0}}
	for i := 0; i < 2; i++ {
		if _, err := c.Heartbeat(HeartbeatRequest{Worker: "w1", Shard: a.Shard, Lease: a.Lease, Done: one}); err != nil {
			t.Fatal(err)
		}
	}
	// Out-of-range and negative indices are discarded, not merged.
	if _, err := c.Heartbeat(HeartbeatRequest{Worker: "w1", Shard: a.Shard, Lease: a.Lease,
		Done: []PointResult{{Index: 100}, {Index: -1}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Complete(CompleteRequest{Worker: "w1", Shard: a.Shard, Lease: a.Lease, Results: shardResults(c, a.Shard)}); err != nil {
		t.Fatal(err)
	}
	// Replayed complete (lost response, client retried): still once each.
	if _, err := c.Complete(CompleteRequest{Worker: "w1", Shard: a.Shard, Lease: a.Lease, Results: shardResults(c, a.Shard)}); err != nil {
		t.Fatal(err)
	}
	if len(merged) != 6 {
		t.Fatalf("merged %d distinct points, want 6", len(merged))
	}
	for pt, n := range merged {
		if n != 1 {
			t.Errorf("point %s merged %d times, want exactly once", pt, n)
		}
	}
	if err := c.Wait(context.Background()); err != nil {
		t.Fatalf("grid not done after full upload: %v", err)
	}
}

func TestCompleteFromNeverLeasedWorkerRejected(t *testing.T) {
	c, _ := testCoord(t, Config{Job: stateTestSpec(), Shards: 2, LeaseTTL: time.Minute})
	_, err := c.Complete(CompleteRequest{Worker: "intruder", Shard: 0, Lease: 99, Results: shardResults(c, 0)})
	var he *httpError
	if !errors.As(err, &he) || he.code != 409 {
		t.Fatalf("complete from never-leased worker: err = %v, want 409", err)
	}
	if done, _ := c.Done(); done != 0 {
		t.Fatalf("rejected upload still merged %d points", done)
	}
}

func TestSpeculativeLeaseFirstWriterWins(t *testing.T) {
	c, clk := testCoord(t, Config{
		Job: stateTestSpec(), Shards: 1,
		LeaseTTL: time.Minute, SpeculateAfter: 500 * time.Millisecond,
	})
	a := mustLease(t, c, "slow")
	// Too early to speculate: the idle worker waits.
	if lr := mustLease(t, c, "fast"); lr.WaitMS == 0 {
		t.Fatalf("speculation before SpeculateAfter: %+v", lr)
	}
	clk.advance(600 * time.Millisecond)
	b := mustLease(t, c, "fast")
	if b.WaitMS > 0 || b.Shard != a.Shard || b.Lease == a.Lease {
		t.Fatalf("speculative lease = %+v, want duplicate of shard %d under a new token", b, a.Shard)
	}
	// The speculative twin finishes first; the straggler is cancelled.
	if _, err := c.Complete(CompleteRequest{Worker: "fast", Shard: b.Shard, Lease: b.Lease, Results: shardResults(c, b.Shard)}); err != nil {
		t.Fatal(err)
	}
	hb, err := c.Heartbeat(HeartbeatRequest{Worker: "slow", Shard: a.Shard, Lease: a.Lease})
	if err != nil || !hb.Cancel {
		t.Fatalf("straggler heartbeat = %+v, %v; want cancel", hb, err)
	}
	if lr := mustLease(t, c, "slow"); !lr.Done {
		t.Fatalf("post-completion lease = %+v, want done", lr)
	}
}

func TestPriorResultsSeedShards(t *testing.T) {
	prior := map[int]cpu.Result{}
	for i := 0; i < 6; i++ {
		prior[i] = cpu.Result{TimeNS: int64(1000 + i)}
	}
	c, _ := testCoord(t, Config{Job: stateTestSpec(), Shards: 3, LeaseTTL: time.Minute, Prior: prior})
	if err := c.Wait(context.Background()); err != nil {
		t.Fatalf("fully seeded grid not born done: %v", err)
	}
	for i, r := range c.Results() {
		if !r.Skipped || r.Run.TimeNS != int64(1000+i) {
			t.Fatalf("result %d = %+v, want prior-seeded ckpt result", i, r)
		}
	}
	if lr := mustLease(t, c, "w1"); !lr.Done {
		t.Fatalf("lease on seeded grid = %+v, want done", lr)
	}
}

func TestBackoffIsCappedWithBoundedJitter(t *testing.T) {
	c, _ := testCoord(t, Config{
		Job: stateTestSpec(), Shards: 1,
		RetryBase: 100 * time.Millisecond, RetryMax: time.Second,
	})
	c.mu.Lock()
	defer c.mu.Unlock()
	prevMin := time.Duration(0)
	for attempts := 1; attempts <= 40; attempts++ {
		d := c.backoffLocked(attempts)
		if d > time.Second+time.Second/2 {
			t.Fatalf("attempt %d: backoff %v exceeds cap + 50%% jitter", attempts, d)
		}
		base := 100 * time.Millisecond << (attempts - 1)
		if attempts > 4 {
			base = time.Second
		}
		if d < base {
			t.Fatalf("attempt %d: backoff %v below deterministic floor %v", attempts, d, base)
		}
		if base > prevMin {
			prevMin = base
		}
	}
}
