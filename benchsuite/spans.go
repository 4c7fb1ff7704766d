package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public API.
// Start and End are offsets from the start of the run, so a span file
// carries no wall-clock timestamps. Spans of one operation share Job;
// set-up and probe spans use job 0.
type span struct {
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Parent  int     `json:"parent"` // index of the causing span, -1 for a root
	Job     int64   `json:"job"`
}

func (s span) dur() time.Duration {
	return time.Duration((s.EndUS - s.StartUS) * float64(time.Microsecond))
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs pay only a nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) offset(at time.Time) float64 {
	return float64(at.Sub(t.t0).Nanoseconds()) / 1e3
}

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent int, job int64) int {
	if t == nil {
		return -1
	}
	now := t.offset(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, StartUS: now, EndUS: now, Parent: parent, Job: job})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := t.offset(time.Now())
	t.mu.Lock()
	t.spans[id].EndUS = now
	t.mu.Unlock()
}

// add records an interval measured elsewhere, such as the arrival of the
// first streamed line of a job.
func (t *tracer) add(name string, parent int, job int64, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, StartUS: t.offset(start), EndUS: t.offset(end), Parent: parent, Job: job}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs f inside a span.
func (t *tracer) timed(name string, parent int, job int64, f func() error) error {
	id := t.begin(name, parent, job)
	err := f()
	t.end(id)
	return err
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations lists the durations of the spans called name, in record order.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// perJobTotals sums the durations of the spans called name within each
// job and returns one total per job that has any, ordered by job.
func perJobTotals(spans []span, name string) []float64 {
	sums := map[int64]float64{}
	for _, s := range spans {
		if s.Name == name {
			sums[s.Job] += float64(s.dur())
		}
	}
	jobs := make([]int64, 0, len(sums))
	for j := range sums {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a] < jobs[b] })
	out := make([]float64, len(jobs))
	for i, j := range jobs {
		out[i] = sums[j]
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Children may overlap one another (a job's
// serve.ttfp contains its serve.ttfb), so the covered part is the length of
// their union, clipped to the parent's interval.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		cs := kids[i]
		sort.Slice(cs, func(a, b int) bool { return cs[a].StartUS < cs[b].StartUS })
		covered, reach := 0.0, s.StartUS
		for _, c := range cs {
			lo, hi := max(c.StartUS, reach), min(c.EndUS, s.EndUS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = time.Duration((s.EndUS - s.StartUS - covered) * float64(time.Microsecond))
	}
	return out
}
