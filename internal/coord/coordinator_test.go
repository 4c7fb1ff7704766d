package coord

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

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

// testCoord builds a coordinator under a fake clock and opens it to
// leases as RunContext would, with opts.
func testCoord(t *testing.T, cfg Config, opts sweep.Options) (*Coordinator, *fakeClock) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	c.now = clk.now
	if err := c.start(opts); err != nil {
		t.Fatal(err)
	}
	return c, clk
}

// merged counts the points merged so far.
func merged(c *Coordinator) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, h := range c.have {
		if h {
			n++
		}
	}
	return n
}

// isDone reports whether every shard is done.
func isDone(c *Coordinator) bool {
	select {
	case <-c.doneCh:
		return true
	default:
		return false
	}
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
	c, _ := testCoord(t, Config{Job: stateTestSpec(), Shards: 2, LeaseTTL: time.Second}, sweep.Options{})
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
	c, clk := testCoord(t, cfg, sweep.Options{})
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
	c, clk := testCoord(t, Config{Job: stateTestSpec(), Shards: 2, LeaseTTL: time.Second}, sweep.Options{})
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
	c, clk := testCoord(t, cfg, sweep.Options{})
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
	merges := map[string]int{}
	c, _ := testCoord(t, Config{Job: stateTestSpec(), Shards: 1, LeaseTTL: time.Minute},
		sweep.Options{OnResult: func(r sweep.Result) { merges[r.Point.String()]++ }})
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
	if len(merges) != 6 {
		t.Fatalf("merged %d distinct points, want 6", len(merges))
	}
	for pt, n := range merges {
		if n != 1 {
			t.Errorf("point %s merged %d times, want exactly once", pt, n)
		}
	}
	if !isDone(c) {
		t.Fatal("grid not done after full upload")
	}
}

func TestCompleteFromNeverLeasedWorkerRejected(t *testing.T) {
	c, _ := testCoord(t, Config{Job: stateTestSpec(), Shards: 2, LeaseTTL: time.Minute}, sweep.Options{})
	_, err := c.Complete(CompleteRequest{Worker: "intruder", Shard: 0, Lease: 99, Results: shardResults(c, 0)})
	var he *httpError
	if !errors.As(err, &he) || he.code != 409 {
		t.Fatalf("complete from never-leased worker: err = %v, want 409", err)
	}
	if n := merged(c); n != 0 {
		t.Fatalf("rejected upload still merged %d points", n)
	}
}

func TestSpeculativeLeaseFirstWriterWins(t *testing.T) {
	c, clk := testCoord(t, Config{
		Job: stateTestSpec(), Shards: 1,
		LeaseTTL: time.Minute, SpeculateAfter: 500 * time.Millisecond,
	}, sweep.Options{})
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
	// Every point journaled: RunContext returns at once, every point
	// Skipped with no Run, and no lease is ever cut.
	c, err := New(Config{Job: stateTestSpec(), Shards: 3, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	results, err := c.RunContext(ctx, c.pts, sweep.Options{Skip: func(sweep.Point) bool { return true }})
	if err != nil {
		t.Fatalf("fully skipped grid not born done: %v", err)
	}
	for i, r := range results {
		if !r.Skipped || r.Err != nil || r.Run.TimeNS != 0 {
			t.Fatalf("result %d = %+v, want Skipped with no Run", i, r)
		}
	}
	if lr := mustLease(t, c, "w1"); !lr.Done {
		t.Fatalf("lease on skipped grid = %+v, want done", lr)
	}
}

func TestBackoffIsCappedWithBoundedJitter(t *testing.T) {
	c, _ := testCoord(t, Config{
		Job: stateTestSpec(), Shards: 1,
		RetryBase: 100 * time.Millisecond, RetryMax: time.Second,
	}, sweep.Options{})
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

// leaseWhenStarted asks for a lease until the answer is more than a wait
// for RunContext to start.
func leaseWhenStarted(t *testing.T, c *Coordinator, worker string) LeaseResponse {
	t.Helper()
	for {
		lr := mustLease(t, c, worker)
		c.mu.Lock()
		started := c.started
		c.mu.Unlock()
		if lr.WaitMS == 0 || started {
			return lr
		}
		time.Sleep(time.Duration(lr.WaitMS) * time.Millisecond)
	}
}

func TestNoLeaseBeforeRunContext(t *testing.T) {
	c, err := New(Config{Job: stateTestSpec(), Shards: 3, LeaseTTL: time.Minute, SpeculateAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	if lr := mustLease(t, c, "early"); lr.WaitMS <= 0 || lr.Done || lr.Shards != 0 {
		t.Fatalf("lease before RunContext = %+v, want a wait", lr)
	}
	// Points 0 and 3 make up shard 0; skipping them leaves shards 1 and 2.
	skip := func(pt sweep.Point) bool { return pt == c.pts[0] || pt == c.pts[3] }
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := make(chan error, 1)
	go func() {
		_, err := c.RunContext(ctx, c.pts, sweep.Options{Skip: skip})
		ran <- err
	}()
	granted := map[int]bool{}
	for _, w := range []string{"early", "w2"} {
		lr := leaseWhenStarted(t, c, w)
		if lr.WaitMS > 0 || lr.Done {
			t.Fatalf("%s: lease after start = %+v, want a grant", w, lr)
		}
		granted[lr.Shard] = true
	}
	if !granted[1] || !granted[2] {
		t.Fatalf("granted shards %v, want 1 and 2", granted)
	}
	if lr := mustLease(t, c, "w3"); lr.WaitMS == 0 {
		t.Fatalf("third worker got %+v; the skipped shard 0 must never be leased", lr)
	}
	cancel()
	if err := <-ran; !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
}

func TestRunContextCancelledMarksUnmergedPoints(t *testing.T) {
	c, err := New(Config{Job: stateTestSpec(), Shards: 3, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type ran struct {
		results []sweep.Result
		err     error
	}
	done := make(chan ran, 1)
	go func() {
		results, err := c.RunContext(ctx, c.pts, sweep.Options{Skip: func(pt sweep.Point) bool { return pt == c.pts[5] }})
		done <- ran{results, err}
	}()
	// One worker finishes one shard; then the run is cancelled.
	lr := leaseWhenStarted(t, c, "w1")
	up := shardResults(c, lr.Shard)
	for i := range up {
		up[i].Run.TimeNS = int64(100 + up[i].Index)
	}
	if _, err := c.Complete(CompleteRequest{Worker: "w1", Shard: lr.Shard, Lease: lr.Lease, Results: up}); err != nil {
		t.Fatal(err)
	}
	cancel()
	r := <-done
	if !errors.Is(r.err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", r.err)
	}
	for i, res := range r.results {
		switch {
		case i == 5:
			if !res.Skipped || res.Err != nil {
				t.Errorf("skipped point %d = %+v, want Skipped with no error", i, res)
			}
		case i%3 == lr.Shard:
			if res.Err != nil || res.Run.TimeNS != int64(100+i) {
				t.Errorf("merged point %d = %+v, want its uploaded run", i, res)
			}
		default:
			if res.Err != r.err || res.Skipped {
				t.Errorf("unmerged point %d = %+v, want Err %v", i, res, r.err)
			}
		}
	}
}

func TestRunContextRejectsOtherPoints(t *testing.T) {
	c, err := New(Config{Job: stateTestSpec(), Shards: 2, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	reversed := slices.Clone(c.pts)
	slices.Reverse(reversed)
	for name, pts := range map[string][]sweep.Point{
		"prefix":   c.pts[:2],
		"reversed": reversed,
		"none":     nil,
	} {
		if results, err := c.RunContext(context.Background(), pts, sweep.Options{}); err == nil || results != nil {
			t.Errorf("%s: RunContext = %d results, %v; want an error", name, len(results), err)
		}
	}
	// A rejected call does not start the grid.
	if lr := mustLease(t, c, "w1"); lr.WaitMS == 0 {
		t.Fatalf("lease after rejected RunContext calls = %+v, want a wait", lr)
	}
}
