package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TenantConfig declares one tenant of the service: an API key identity
// plus its isolation knobs. Zero values get defaults (weight 1, unlimited
// rate).
type TenantConfig struct {
	// Name labels the tenant everywhere it surfaces: /metrics labels,
	// logs, the job journal, and JobSpec.Tenant on accepted jobs.
	Name string `json:"name"`
	// Key is the API key presented as `Authorization: Bearer <key>` or
	// `X-API-Key: <key>`.
	Key string `json:"key"`
	// Weight is the tenant's share of the fair job queue (default 1): a
	// weight-2 tenant is granted run slots twice as often as a weight-1
	// tenant while both have jobs queued.
	Weight int `json:"weight,omitempty"`
	// RatePerSec refills the tenant's admission token bucket (jobs per
	// second; 0 = unlimited). Burst is the bucket depth (default
	// ceil(rate), at least 1).
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	Burst      int     `json:"burst,omitempty"`
}

type tenantsFile struct {
	Tenants []TenantConfig `json:"tenants"`
}

// Tenants is the parsed tenant table. A nil *Tenants means open access:
// every request maps to one built-in anonymous tenant.
type Tenants struct {
	byKey  map[string]*TenantConfig
	byName map[string]*TenantConfig
	names  []string // sorted
}

// ParseTenants validates a tenant list: names and keys must be non-empty
// and unique, weights and rates non-negative.
func ParseTenants(cfgs []TenantConfig) (*Tenants, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("tenants config declares no tenants")
	}
	t := &Tenants{byKey: map[string]*TenantConfig{}, byName: map[string]*TenantConfig{}}
	for i := range cfgs {
		c := &cfgs[i]
		if c.Name == "" {
			return nil, fmt.Errorf("tenant %d: empty name", i)
		}
		if c.Key == "" {
			return nil, fmt.Errorf("tenant %q: empty api key", c.Name)
		}
		if c.Weight < 0 {
			return nil, fmt.Errorf("tenant %q: negative weight %d", c.Name, c.Weight)
		}
		if c.RatePerSec < 0 || math.IsNaN(c.RatePerSec) || math.IsInf(c.RatePerSec, 0) {
			return nil, fmt.Errorf("tenant %q: invalid rate %v", c.Name, c.RatePerSec)
		}
		if c.Burst < 0 {
			return nil, fmt.Errorf("tenant %q: negative burst %d", c.Name, c.Burst)
		}
		if _, dup := t.byName[c.Name]; dup {
			return nil, fmt.Errorf("duplicate tenant name %q", c.Name)
		}
		if _, dup := t.byKey[c.Key]; dup {
			return nil, fmt.Errorf("tenant %q: api key already assigned", c.Name)
		}
		t.byName[c.Name] = c
		t.byKey[c.Key] = c
		t.names = append(t.names, c.Name)
	}
	sort.Strings(t.names)
	return t, nil
}

// LoadTenants reads and validates a tenants config file:
//
//	{"tenants": [{"name": "alice", "key": "ak_...", "weight": 2,
//	              "rate_per_sec": 1, "burst": 4}, ...]}
func LoadTenants(path string) (*Tenants, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f tenantsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("tenants config %s: %v", path, err)
	}
	t, err := ParseTenants(f.Tenants)
	if err != nil {
		return nil, fmt.Errorf("tenants config %s: %v", path, err)
	}
	return t, nil
}

// tokenBucket is a standard token bucket over wall time; rate <= 0 means
// unlimited.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate float64, burst int) *tokenBucket {
	if rate <= 0 {
		return &tokenBucket{}
	}
	b := float64(burst)
	if burst <= 0 {
		b = math.Ceil(rate)
		if b < 1 {
			b = 1
		}
	}
	return &tokenBucket{rate: rate, burst: b, tokens: b}
}

// take spends one token if available; otherwise it reports how long until
// the next token accrues.
func (b *tokenBucket) take(now time.Time) (bool, time.Duration) {
	if b.rate <= 0 {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
	return false, wait
}

// tenant is one tenant's runtime state: identity, quota, fair-queue
// position, and metrics.
type tenant struct {
	name   string
	key    []byte
	weight int
	bucket *tokenBucket

	// pass is the stride-scheduling virtual time: each granted run slot
	// advances it by strideOne/weight, and the fair queue always grants
	// the queued tenant with the smallest pass. queued is its FIFO of
	// waiters (guarded by the fairQueue mutex).
	pass   uint64
	queued []*fqWaiter

	m tenantMetrics
}

func newTenant(cfg TenantConfig) *tenant {
	w := cfg.Weight
	if w <= 0 {
		w = 1
	}
	return &tenant{
		name:   cfg.Name,
		key:    []byte(cfg.Key),
		weight: w,
		bucket: newTokenBucket(cfg.RatePerSec, cfg.Burst),
		m:      tenantMetrics{admitSeconds: newHistogram(admitBuckets)},
	}
}

// strideOne is the virtual-time advance of a weight-1 grant; a weight-w
// tenant advances by strideOne/w, so it is granted w slots per virtual
// tick.
const strideOne = 1 << 20

func (t *tenant) stride() uint64 { return strideOne / uint64(t.weight) }

// fqWaiter is one job waiting for a run slot.
type fqWaiter struct {
	ready   chan struct{}
	granted bool
}

// fairQueue hands out the server's run slots with weighted fairness
// across tenants (stride scheduling): within a tenant jobs run FIFO, but
// across tenants each grant goes to the queued tenant with the least
// virtual time consumed, so a tenant flooding the queue only delays
// itself — another tenant's next job is granted after at most one job per
// competing tenant, regardless of backlog depth. The queue bound is per
// tenant for the same reason: a flood must not squeeze other tenants out
// of the waiting room itself.
type fairQueue struct {
	mu           sync.Mutex
	free         int // free run slots
	maxPerTenant int
	vtime        uint64 // pass of the most recent grant
	waiting      map[*tenant]struct{}
	depth        int           // total queued waiters
	depthGauge   *atomic.Int64 // mirrors depth for /metrics (may be nil)
}

func newFairQueue(slots, maxPerTenant int, depthGauge *atomic.Int64) *fairQueue {
	return &fairQueue{
		free: slots, maxPerTenant: maxPerTenant,
		waiting: map[*tenant]struct{}{}, depthGauge: depthGauge,
	}
}

// setDepthLocked adjusts the waiter count and its exported mirror.
func (q *fairQueue) setDepthLocked(d int) {
	q.depth = d
	if q.depthGauge != nil {
		q.depthGauge.Store(int64(d))
	}
}

// acquire blocks until t is granted a run slot, the per-tenant queue is
// full (ok=false, full=true), or done is closed (ok=false, full=false).
// On ok the caller must release() exactly once.
func (q *fairQueue) acquire(done <-chan struct{}, t *tenant) (ok, full bool) {
	q.mu.Lock()
	if len(t.queued) >= q.maxPerTenant {
		q.mu.Unlock()
		return false, true
	}
	w := &fqWaiter{ready: make(chan struct{})}
	if len(t.queued) == 0 {
		// (Re)activation: start from the current virtual time rather than
		// a stale pass, so an idle tenant neither monopolizes the queue on
		// return nor pays for slots it never wanted.
		if t.pass < q.vtime {
			t.pass = q.vtime
		}
		q.waiting[t] = struct{}{}
	}
	t.queued = append(t.queued, w)
	q.setDepthLocked(q.depth + 1)
	q.dispatchLocked()
	q.mu.Unlock()

	select {
	case <-w.ready:
		return true, false
	case <-done:
		q.mu.Lock()
		if w.granted {
			// The grant raced the cancellation; hand the slot straight back.
			q.free++
			q.dispatchLocked()
			q.mu.Unlock()
			return false, false
		}
		for i, o := range t.queued {
			if o == w {
				t.queued = append(t.queued[:i], t.queued[i+1:]...)
				q.setDepthLocked(q.depth - 1)
				break
			}
		}
		if len(t.queued) == 0 {
			delete(q.waiting, t)
		}
		q.mu.Unlock()
		return false, false
	}
}

// release returns a slot and grants it onward.
func (q *fairQueue) release() {
	q.mu.Lock()
	q.free++
	q.dispatchLocked()
	q.mu.Unlock()
}

// dispatchLocked grants free slots to waiting tenants in stride order,
// tie-broken by name so scheduling is deterministic.
func (q *fairQueue) dispatchLocked() {
	for q.free > 0 && len(q.waiting) > 0 {
		var min *tenant
		for t := range q.waiting {
			if min == nil || t.pass < min.pass || (t.pass == min.pass && t.name < min.name) {
				min = t
			}
		}
		w := min.queued[0]
		min.queued = min.queued[1:]
		q.setDepthLocked(q.depth - 1)
		if len(min.queued) == 0 {
			delete(q.waiting, min)
		}
		q.vtime = min.pass
		min.pass += min.stride()
		q.free--
		w.granted = true
		close(w.ready)
	}
}

// queueDepth returns the total number of queued jobs.
func (q *fairQueue) queueDepth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.depth
}
