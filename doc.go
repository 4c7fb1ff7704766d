// Package mlcache is a trace-driven, timing-accurate multi-level cache
// hierarchy simulator and analysis library reproducing Przybylski,
// Horowitz & Hennessy, "Characteristics of Performance-Optimal Multi-Level
// Cache Hierarchies" (ISCA 1989).
//
// The root package is a facade over the implementation packages:
//
//   - internal/cache: the set-associative cache model
//   - internal/bus, internal/mainmem, internal/wbuf: the timing substrates
//   - internal/memsys: hierarchy composition and the time-accurate access
//     path
//   - internal/cpu: the RISC-like CPU model and execution-time accounting
//   - internal/trace, internal/synth, internal/workload: reference traces,
//     the calibrated synthetic multiprogramming workload, and program-like
//     kernels
//   - internal/analytic: the paper's Equation 1 and derived predictions
//   - internal/sweep, internal/contour, internal/experiments: the design
//     space exploration machinery and one driver per paper figure
//
// See README.md for a tour, DESIGN.md for the reproduction methodology,
// and EXPERIMENTS.md for paper-vs-measured results. The benchmarks in
// bench_test.go regenerate every figure:
//
//	go test -bench=Fig -benchmem
package mlcache
