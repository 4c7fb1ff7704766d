package main

import "time"

// On a host shared with other tenants, their load slows everything the
// benchmark runs, in waves lasting seconds to many minutes, at times by
// half. The gated times are therefore scaled by the host's speed at the
// moment they are taken: just before each op and each set-up, a fixed
// kernel runs and is timed, and the measured time is multiplied by
// calibRefMS divided by the kernel's time. The kernel uses no repository
// code, so no change to the program can move it; only the host's speed
// does.
//
// The kernel's working set fits the caches nearest one core, so it
// measures how fast the core itself runs. Of the sizes tried (64 KiB,
// 1 MiB, 8 MiB), it tracked the workloads' slowdowns best: the load that
// comes and goes is other tenants' threads sharing the cores.

const (
	// calibWords is the kernel's working set in 8-byte words: 64 KiB.
	calibWords = 1 << 13
	// calibSteps is the kernel's length: about 2 ms on an idle host.
	calibSteps = 400_000
	// calibRefMS is the kernel's time on the idle two-core Xeon host the
	// benchmark was calibrated on; scaled times are close to wall-clock
	// times on such a host.
	calibRefMS = 2.1
)

// calibrator holds the kernel's table.
type calibrator struct {
	table [calibWords]uint64
	sink  uint64
}

func newCalibrator() *calibrator {
	c := &calibrator{}
	c.run() // bring the table into the caches
	return c
}

// run executes the kernel, dependent pseudo-random reads and writes over
// the table, and returns its time in milliseconds.
func (c *calibrator) run() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	var sum uint64
	for i := 0; i < calibSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := (x ^ sum) & (calibWords - 1)
		c.table[j] += x
		sum += c.table[(j*7919)&(calibWords-1)]
	}
	c.sink = sum
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}
