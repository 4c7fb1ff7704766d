package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
)

// dist summarises one metric's samples within a run. The quartiles use
// the same "exclusive" method as Python's statistics.quantiles(n=4), so
// they agree with tools that compare runs; with a single sample all three
// equal it.
type dist struct {
	N   int     `json:"n"`
	P25 float64 `json:"p25"`
	P50 float64 `json:"p50"`
	P75 float64 `json:"p75"`
	// TailPct is the highest of tailPercentiles with at least ten samples
	// beyond it, and Tail its value; both are zero when n < 20.
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail"`
}

func summarize(xs []float64) dist {
	d := dist{N: len(xs)}
	if len(xs) == 0 {
		return d
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d.P25, d.P50, d.P75 = quartiles(s)
	if p, ok := tailPercentile(len(s)); ok {
		d.TailPct = p
		d.Tail = s[int(math.Ceil(p/100*float64(len(s))))-1]
	}
	return d
}

// quartiles of sorted s, by the exclusive method.
func quartiles(s []float64) (q1, q2, q3 float64) {
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 { return summarize(xs).P50 }

var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile that leaves at least ten
// of n samples beyond it: p75 for 40 samples, p95 for 200.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// host describes the machine a run measured. It deliberately holds no
// timestamps or host names, so files from identical hosts compare equal.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	// WorkFS is the filesystem type of the run's scratch directory: the
	// service's journal fsyncs cost far more on a disk than on tmpfs.
	WorkFS string `json:"work_fs"`
}

func hostInfo(workDir string) host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		WorkFS:     fsType(workDir),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsMagic names the statfs(2) magic numbers of common filesystems.
var fsMagic = map[int64]string{
	0xEF53:     "ext2/ext3/ext4",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
	0x2fc12fc1: "zfs",
	0x6969:     "nfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return "other"
}

// retainedHeapMB collects garbage and returns the live heap in MiB: the
// memory the workload's state holds, independent of when collections
// happen to run.
func retainedHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
