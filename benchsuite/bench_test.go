package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64 // 0 = none
	}{
		{1, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90},
		{200, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		got, ok := tailPercentile(c.n)
		if !ok {
			got = 0
		}
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarizeTailLeavesTenBeyond(t *testing.T) {
	for _, n := range []int{20, 40, 100, 200} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		d := summarize(xs)
		beyond := 0
		for _, x := range xs {
			if x > d.Tail {
				beyond++
			}
		}
		if d.N != n || beyond != 10 {
			t.Errorf("n=%d: p%v = %v leaves %d samples beyond it, want 10", n, d.TailPct, d.Tail, beyond)
		}
	}
}

// The quartiles must match Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", StartUS: 0, EndUS: 100, Parent: -1},
		{Name: "a", StartUS: 10, EndUS: 30, Parent: 0},
		{Name: "b", StartUS: 20, EndUS: 50, Parent: 0},  // overlaps a
		{Name: "c", StartUS: 90, EndUS: 120, Parent: 0}, // runs past op
		{Name: "d", StartUS: 25, EndUS: 35, Parent: 2},
		{Name: "other", StartUS: 0, EndUS: 5, Parent: -1},
	}
	want := []time.Duration{50, 20, 20, 30, 10, 5}
	for i, got := range selfTimes(spans) {
		if got != want[i]*time.Microsecond {
			t.Errorf("self time of %s = %v, want %vµs", spans[i].Name, got, want[i])
		}
	}
}

func TestPerJobTotals(t *testing.T) {
	spans := []span{
		{Name: "x", StartUS: 0, EndUS: 1, Job: 2},
		{Name: "x", StartUS: 1, EndUS: 4, Job: 2},
		{Name: "y", StartUS: 0, EndUS: 9, Job: 1},
		{Name: "x", StartUS: 0, EndUS: 2, Job: 1},
	}
	got := perJobTotals(spans, "x")
	want := []float64{2000, 4000}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("perJobTotals = %v, want %v", got, want)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// BENCHMARK.json declares exactly the workloads and metrics the program
// runs and reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(src, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		kind       string
		file, code []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.kind, len(c.file), len(c.code))
			continue
		}
		for i := range c.code {
			if c.file[i] != c.code[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, program %+v", c.kind, i, c.file[i], c.code[i])
			}
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	// setup_s has the largest bound, and no bound exceeds 0.25.
	var setupBound float64
	for _, d := range endToEnd {
		if d.Name == "setup_s" {
			setupBound = d.Bound
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > setupBound || d.Bound > 0.25 {
			t.Errorf("%s: bound %v out of range", d.Name, d.Bound)
		}
	}
}

func TestGoldenCoversEveryWorkload(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, seed := range goldenSeeds {
			if d := g[w.name][strconv.FormatInt(seed, 10)]; len(d) != 64 {
				t.Errorf("golden.json: %s seed %d has digest %q", w.name, seed, d)
			}
		}
	}
}

// TestSmoke runs every workload once untraced and once traced on tiny
// inputs (a few seconds in all), and checks what each run reports and
// writes.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := run(runConfig{workload: w.name, seed: 4, traced: traced, short: true, workDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < minOps {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d errors=%v",
					w.name, traced, rep.Correct, rep.Attempted, rep.Failed, rep.Errors)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, want %d", w.name, traced, len(rep.Metrics), len(want))
			}
			for _, d := range want {
				v, ok := rep.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%t: metric %s = %+v (present %t), want unit %s", w.name, traced, d.Name, v, ok, d.Unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, v.Value)
				}
			}
			if err := writeReport(rep, out); err != nil {
				t.Fatal(err)
			}
		}
	}
	files, err := filepath.Glob(filepath.Join(out, "BENCH_*.json"))
	if err != nil || len(files) != 2*len(workloads) {
		t.Fatalf("wrote %d BENCH files (%v), want %d", len(files), err, 2*len(workloads))
	}
	for _, f := range files {
		checkNoTimestamps(t, f)
	}
}

// A wrong golden digest fails the run's checks.
func TestGoldenMismatchFails(t *testing.T) {
	rep, err := run(runConfig{
		workload: "point-wb", seed: 1, short: true, workDir: t.TempDir(),
		golden: map[string]map[string]string{"point-wb": {"1": strings.Repeat("0", 64)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || len(rep.Errors) != 1 || !strings.HasPrefix(rep.Errors[0], "golden:") {
		t.Errorf("correct=%t errors=%v, want one golden failure", rep.Correct, rep.Errors)
	}
}

var timeKey = regexp.MustCompile(`(?i)time|date|stamp|unix|clock`)

// checkNoTimestamps fails if a report carries a field that names a time
// or a string value that parses as one.
func checkNoTimestamps(t *testing.T, path string) {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var v any
	if err := json.Unmarshal(src, &v); err != nil {
		t.Fatal(err)
	}
	var walk func(key string, v any)
	walk = func(key string, v any) {
		if timeKey.MatchString(key) {
			t.Errorf("%s: field %q looks like a timestamp", filepath.Base(path), key)
		}
		switch x := v.(type) {
		case map[string]any:
			for k, c := range x {
				walk(k, c)
			}
		case []any:
			for _, c := range x {
				walk(key, c)
			}
		case string:
			if _, err := time.Parse(time.RFC3339, x); err == nil {
				t.Errorf("%s: field %q holds a timestamp %q", filepath.Base(path), key, x)
			}
		}
	}
	walk("", v)
}
