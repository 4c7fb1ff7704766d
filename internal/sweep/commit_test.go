package sweep

import (
	"sync"
	"testing"
	"time"

	"mlcache/internal/cpu"
)

// TestCommitterBatchesInOrder: points added while a commit is in flight
// wait for the next one and share it, every point is committed exactly
// once in the order it was added, and Drain returns only after the last
// commit.
func TestCommitterBatchesInOrder(t *testing.T) {
	const n = 200
	var (
		got     []int64
		commits int
	)
	c := NewCommitter(func(batch []Result) {
		commits++
		for _, res := range batch {
			got = append(got, res.Run.TimeNS)
		}
		time.Sleep(time.Millisecond) // an fsync's worth of wait
	})
	for i := int64(0); i < n; i++ {
		c.Add(Result{Run: cpu.Result{TimeNS: i}})
		if i%10 == 0 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	c.Drain()
	if len(got) != n {
		t.Fatalf("committed %d points, want %d", len(got), n)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("commit order %v, want 0..%d", got, n-1)
		}
	}
	if commits < 1 || commits >= n {
		t.Errorf("%d commits for %d points added faster than they commit, want them batched", commits, n)
	}
}

// TestCommitterConcurrentAdds: points added from several goroutines at
// once are each committed exactly once before Drain returns, and a point
// added after Drain is dropped instead of panicking on the closed wake
// channel.
func TestCommitterConcurrentAdds(t *testing.T) {
	const workers, per = 4, 100
	seen := map[int64]int{}
	c := NewCommitter(func(batch []Result) {
		for _, res := range batch {
			seen[res.Run.TimeNS]++
		}
	})
	var wg sync.WaitGroup
	for w := int64(0); w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < per; i++ {
				c.Add(Result{Run: cpu.Result{TimeNS: w*per + i}})
			}
		}()
	}
	wg.Wait()
	c.Drain()
	c.Add(Result{Run: cpu.Result{TimeNS: -1}})
	if len(seen) != workers*per || seen[-1] != 0 {
		t.Fatalf("committed %d distinct points (late point %d times), want %d and 0", len(seen), seen[-1], workers*per)
	}
	for v, n := range seen {
		if n != 1 {
			t.Errorf("point %d committed %d times", v, n)
		}
	}
}
