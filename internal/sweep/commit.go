package sweep

import "sync"

// Committer carries a grid's finished points from the simulation workers
// to one goroutine that commits them in batches, so that a worker's
// OnResult never waits for a journal's fsync. Add queues a point and never
// waits for the commit; the goroutine commits everything queued since its
// previous commit in one call, in the order Add saw it, so the points that
// finish during one commit share the next.
type Committer struct {
	mu      sync.Mutex
	queued  []Result
	drained bool
	wake    chan struct{} // holds a token while points may wait; closed by Drain
	done    chan struct{} // closed after the last commit
}

// NewCommitter starts a Committer whose goroutine calls commit with each
// batch; commit may keep no reference to the slice after it returns.
func NewCommitter(commit func([]Result)) *Committer {
	c := &Committer{wake: make(chan struct{}, 1), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		var batch []Result
		for range c.wake {
			c.mu.Lock()
			batch, c.queued = c.queued, batch[:0]
			c.mu.Unlock()
			if len(batch) > 0 {
				commit(batch)
			}
		}
	}()
	return c
}

// Add queues one finished point for the next commit. It has the shape of
// Options.OnResult. A point added once Drain has begun is dropped.
func (c *Committer) Add(res Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.drained {
		return
	}
	c.queued = append(c.queued, res)
	select {
	case c.wake <- struct{}{}:
	default: // a token is pending; its commit takes this point too
	}
}

// Drain waits until every point queued before it is committed and stops
// the goroutine. Call it once.
func (c *Committer) Drain() {
	c.mu.Lock()
	c.drained = true
	close(c.wake)
	c.mu.Unlock()
	<-c.done
}
