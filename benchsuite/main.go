// Command benchsuite is the repository's benchmark. One run sets up a named
// workload from a seed, repeats its operation for a fixed time, checks that
// the simulated outputs are correct, and prints one JSON line:
//
//	{"correct": true, "attempted": 97, "failed": 0, "metrics": {"op_p50_ms": {"value": 91.2, "unit": "ms"}, ...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) reports the per-layer metrics and writes its spans. Every run
// also writes BENCH_<workload>.json (or BENCH_<workload>.layers.json) under
// -out. With -workload all, each workload runs in its own child process,
// one at a time, and every metric is printed as "workload metric value
// unit". See README.md for the workloads and the metrics.
//
// Usage:
//
//	bash benchsuite/run.sh --workload point-wb --seed 1 --seconds 10 --trace 0
//	bash benchsuite/run.sh --workload all --seed 4 --seconds 10 --trace 1
//	bash benchsuite/run.sh --update-golden
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// goldenSeeds are the seeds testdata/golden.json holds output digests for.
var goldenSeeds = []int64{1, 2, 3}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchsuite: ")
	var (
		name    = flag.String("workload", "", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds = flag.Float64("seconds", 10, "how long to repeat the operation")
		traced  = flag.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from a traced run")
		short   = flag.Bool("short", false, "tiny inputs, for smoke tests (no golden check)")
		out     = flag.String("out", filepath.Join(".bench_build", "results"), "directory for BENCH_*.json and SPANS_*.json")
		work    = flag.String("work", filepath.Join(".bench_build", "work"), "parent of each run's scratch directory")
		update  = flag.Bool("update-golden", false, "recompute the golden output digests and write them to -golden")
		golden  = flag.String("golden", filepath.Join("benchsuite", "testdata", "golden.json"), "golden file written by -update-golden")
	)
	flag.Parse()
	for _, dir := range []string{*out, *work} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	switch {
	case *update:
		if err := updateGolden(*golden, *work); err != nil {
			log.Fatal(err)
		}
	case *name == "all":
		if !runSuite(os.Args[0], *seed, *seconds, *traced == 1, *short, *out, *work) {
			os.Exit(1)
		}
	default:
		gold, err := loadGolden()
		if err != nil {
			log.Fatal(err)
		}
		if *short {
			gold = nil // the digests are of full-size outputs
		}
		rep, err := run(runConfig{
			workload: *name, seed: *seed, seconds: *seconds, traced: *traced == 1,
			short: *short, workDir: *work, golden: gold,
		})
		if err != nil {
			log.Fatal(err)
		}
		for _, e := range rep.Errors {
			log.Print(e)
		}
		if err := writeReport(rep, *out); err != nil {
			log.Fatal(err)
		}
		line, err := json.Marshal(summary{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(line))
		if !rep.Correct {
			os.Exit(1)
		}
	}
}

// summary is the last line a run prints.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func loadGolden() (map[string]map[string]string, error) {
	src, err := testdata.ReadFile("testdata/golden.json")
	if err != nil {
		return nil, err
	}
	var g map[string]map[string]string
	if err := json.Unmarshal(src, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// writeReport writes BENCH_<workload>.json and, for a traced run,
// BENCH_<workload>.layers.json and SPANS_<workload>.json with every span
// and the self time of each span name.
func writeReport(rep *report, dir string) error {
	name := "BENCH_" + rep.Workload + ".json"
	if rep.Traced {
		name = "BENCH_" + rep.Workload + ".layers.json"
		self := map[string]float64{}
		for i, d := range selfTimes(rep.spans) {
			self[rep.spans[i].Name] += float64(d.Nanoseconds()) / 1e6
		}
		if err := writeJSON(filepath.Join(dir, "SPANS_"+rep.Workload+".json"), struct {
			SelfMS map[string]float64 `json:"self_ms"`
			Spans  []span             `json:"spans"`
		}{self, rep.spans}); err != nil {
			return err
		}
	}
	return writeJSON(filepath.Join(dir, name), rep)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runSuite runs every workload in its own child process, one at a time,
// and prints each metric as "workload metric value unit". It reports
// whether every run completed and passed its checks.
func runSuite(self string, seed int64, seconds float64, traced, short bool, out, work string) bool {
	ok := true
	for _, w := range workloads {
		args := []string{
			"--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"--trace", map[bool]string{false: "0", true: "1"}[traced],
			"--out", out, "--work", work,
		}
		if short {
			args = append(args, "--short")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		start := time.Now()
		stdout, err := cmd.Output()
		if err != nil {
			log.Printf("%s: %v", w.name, err)
			ok = false
		}
		sum, perr := lastSummary(stdout)
		if perr != nil {
			log.Printf("%s: %v", w.name, perr)
			ok = false
			continue
		}
		names := make([]string, 0, len(sum.Metrics))
		for n := range sum.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%s %s %v %s\n", w.name, n, sum.Metrics[n].Value, sum.Metrics[n].Unit)
		}
		fmt.Printf("%s correct %t (%d attempted, %d failed, %.1fs)\n",
			w.name, sum.Correct, sum.Attempted, sum.Failed, time.Since(start).Seconds())
		ok = ok && sum.Correct
	}
	return ok
}

func lastSummary(stdout []byte) (summary, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var s summary
	if last == nil {
		return s, fmt.Errorf("no result line")
	}
	if err := json.Unmarshal(last, &s); err != nil {
		return s, fmt.Errorf("result line: %w", err)
	}
	return s, nil
}

// updateGolden runs every workload once per golden seed, untraced and with
// the minimum number of ops, and writes the digests of their outputs.
func updateGolden(path, work string) error {
	g := map[string]map[string]string{}
	for _, w := range workloads {
		g[w.name] = map[string]string{}
		for _, seed := range goldenSeeds {
			rep, err := run(runConfig{workload: w.name, seed: seed, workDir: work})
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			if !rep.Correct {
				return fmt.Errorf("%s seed %d: checks failed: %v", w.name, seed, rep.Errors)
			}
			g[w.name][strconv.FormatInt(seed, 10)] = rep.OutputSHA256
			log.Printf("%s seed %d: %s", w.name, seed, rep.OutputSHA256)
		}
	}
	return writeJSON(path, g)
}
